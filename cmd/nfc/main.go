// Command nfc is the NF-C front end: it parses an NF-C implementation
// library, type-checks it against a state schema, and dumps each
// action's extracted read/write sets and emitted events — the deep
// visibility the GuNFu compiler and runtime consume.
//
// Usage:
//
//	nfc -schema 'PerFlowState=ip,port' path/to/actions.nfc
//
// cmd/nfc/testdata/mapper.nfc is the paper's Listing 4 flow mapper:
//
//	go run ./cmd/nfc -schema 'PerFlowState=ip,port' cmd/nfc/testdata/mapper.nfc
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"github.com/gunfu-nfv/gunfu/internal/nfc"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the command with its arguments and output streams; it returns
// the exit status: 0 on success, 1 when the file cannot be read, parsed
// or compiled, 2 on a usage or schema error.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("nfc", flag.ContinueOnError)
	fs.SetOutput(stderr)
	schemaFlag := fs.String("schema", "", "state schema: Root=field,field;Root=... (roots: PerFlowState, SubFlowState, ControlState, TempState)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if fs.NArg() != 1 {
		fmt.Fprintln(stderr, "usage: nfc [-schema ...] <file.nfc>")
		return 2
	}
	src, err := os.ReadFile(fs.Arg(0))
	if err != nil {
		fmt.Fprintf(stderr, "nfc: %v\n", err)
		return 1
	}
	schema, err := parseSchema(*schemaFlag)
	if err != nil {
		fmt.Fprintf(stderr, "nfc: %v\n", err)
		return 2
	}
	actions, err := nfc.Parse(string(src))
	if err != nil {
		fmt.Fprintf(stderr, "nfc: %v\n", err)
		return 1
	}
	for _, ast := range actions {
		compiled, err := nfc.Compile(ast, schema)
		if err != nil {
			fmt.Fprintf(stderr, "nfc: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "NFAction %s (cost≈%d insts, %d temp slots)\n",
			compiled.Name, compiled.Cost, compiled.NumLocals)
		dumpSet(stdout, "reads", compiled.Reads)
		dumpSet(stdout, "writes", compiled.Writes)
		fmt.Fprintf(stdout, "  emits:  %s\n", strings.Join(compiled.Events, ", "))
	}
	return 0
}

func dumpSet(w io.Writer, label string, set map[nfc.Root][]string) {
	if len(set) == 0 {
		fmt.Fprintf(w, "  %s: (none)\n", label)
		return
	}
	var parts []string
	for _, root := range []nfc.Root{nfc.RootPacket, nfc.RootPerFlow, nfc.RootSubFlow, nfc.RootControl, nfc.RootTemp} {
		if fields, ok := set[root]; ok {
			parts = append(parts, fmt.Sprintf("%s{%s}", root, strings.Join(fields, ",")))
		}
	}
	fmt.Fprintf(w, "  %s: %s\n", label, strings.Join(parts, " "))
}

func parseSchema(s string) (nfc.Schema, error) {
	schema := nfc.Schema{}
	if s == "" {
		return schema, nil
	}
	for _, part := range strings.Split(s, ";") {
		eq := strings.SplitN(strings.TrimSpace(part), "=", 2)
		if len(eq) != 2 {
			return nil, fmt.Errorf("bad schema entry %q", part)
		}
		// Packet fields are builtin, not declared.
		root, ok := nfc.ParseRoot(eq[0])
		if !ok || root == nfc.RootPacket {
			return nil, fmt.Errorf("unknown schema root %q", eq[0])
		}
		var fields []string
		for _, f := range strings.Split(eq[1], ",") {
			if f = strings.TrimSpace(f); f != "" {
				fields = append(fields, f)
			}
		}
		schema[root] = fields
	}
	return schema, nil
}
