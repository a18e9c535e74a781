package spec

import (
	"strings"
	"testing"
)

// classifierSpec mirrors the paper's Listing 1 (cuckoo flow classifier).
const classifierSpec = `
# Flow Classifier Specification
name: flow_classifier
category: StatefulClassifier
parameters: # for init, conf
  - header_type
transitions:
  - Start,packet->get_key
  - get_key,get_key_done->hash_1
  - hash_1,hash_done->check_1
  - check_1,MATCH_SUCCESS->End
  - check_1,check_failure->hash_2
  - hash_2,sec_hash_done->check_2
  - check_2,MATCH_SUCCESS->End
  - check_2,MATCH_FAIL->End
fetch:
  hash_1:
    - header_type # packet state
  check_1:
    - bucket # match state
  hash_2:
    - header_type
  check_2:
    - bucket
`

// mapperSpec mirrors Listing 2 (flow mapper).
const mapperSpec = `
name: flow_mapper
category: StatefulNF
transitions:
  - Start,MATCH_SUCCESS->flow_mapper
  - flow_mapper,packet->End
states:
  flow_mapper:
    - ip # mapped ip
    - port # mapped port
`

func TestParseClassifierSpec(t *testing.T) {
	m, err := ParseModule(classifierSpec)
	if err != nil {
		t.Fatal(err)
	}
	if m.Name != "flow_classifier" || m.Category != "StatefulClassifier" {
		t.Fatalf("header = %q/%q", m.Name, m.Category)
	}
	if len(m.Transitions) != 8 {
		t.Fatalf("transitions = %d, want 8", len(m.Transitions))
	}
	entry, event := m.Entry()
	if entry != "get_key" || event != "packet" {
		t.Fatalf("entry = %s on %s", entry, event)
	}
	// parameters and fetch are ignored keys: nothing becomes state.
	if len(m.States) != 0 {
		t.Fatalf("states = %v, want none", m.States)
	}
}

func TestParseMapperSpec(t *testing.T) {
	m, err := ParseModule(mapperSpec)
	if err != nil {
		t.Fatal(err)
	}
	if got := m.States; len(got) != 2 || got[0] != "ip" || got[1] != "port" {
		t.Fatalf("states = %v", got)
	}
	entry, event := m.Entry()
	if entry != "flow_mapper" || event != "MATCH_SUCCESS" {
		t.Fatalf("entry = %s on %s", entry, event)
	}
}

func TestParseTransition(t *testing.T) {
	tests := []struct {
		in      string
		want    Transition
		wantErr bool
	}{
		{"a,b->c", Transition{"a", "b", "c"}, false},
		{" a , b -> c ", Transition{"a", "b", "c"}, false},
		{"a,b,c->d", Transition{"a,b", "c", "d"}, false}, // last comma splits
		{"a->b", Transition{}, true},
		{"a,b", Transition{}, true},
		{",b->c", Transition{}, true},
		{"a,->c", Transition{}, true},
		{"a,b->", Transition{}, true},
	}
	for _, tt := range tests {
		got, err := ParseTransition(tt.in)
		if (err != nil) != tt.wantErr {
			t.Fatalf("ParseTransition(%q) err = %v, wantErr %v", tt.in, err, tt.wantErr)
		}
		if err == nil && got != tt.want {
			t.Fatalf("ParseTransition(%q) = %+v, want %+v", tt.in, got, tt.want)
		}
	}
}

func TestParseModuleErrors(t *testing.T) {
	tests := []struct{ name, src string }{
		{"no name", "category: x\ntransitions:\n  - Start,packet->a\n  - a,done->End"},
		{"no transitions", "name: x"},
		{"bad transition", "name: x\ntransitions:\n  - bogus"},
		{"no start", "name: x\ntransitions:\n  - a,e->End"},
		{"two starts", "name: x\ntransitions:\n  - Start,packet->a\n  - Start,packet->b"},
		{"states not map", "name: x\ntransitions:\n  - Start,packet->a\nstates:\n  - item"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := ParseModule(tt.src); err == nil {
				t.Fatalf("ParseModule accepted %q", tt.src)
			}
		})
	}
}

func TestParseNF(t *testing.T) {
	src := `
name: nat
chain:
  - flow_classifier
  - flow_mapper
`
	n, err := ParseNF(src)
	if err != nil {
		t.Fatal(err)
	}
	if n.Name != "nat" || len(n.Stages) != 2 || n.Stages[1] != "flow_mapper" {
		t.Fatalf("NF = %+v", n)
	}
}

// TestParseNFRejectsOptimize: FromSpec applies no optimizations, so a
// composition that requests one — even one the Go NFs have — is an
// error naming where MR and DP do exist, not a silently plain program.
func TestParseNFRejectsOptimize(t *testing.T) {
	_, err := ParseNF("name: x\nchain:\n  - a\noptimize:\n  - redundant_matching_removal\n  - data_packing")
	if err == nil {
		t.Fatal("optimize accepted")
	}
	for _, want := range []string{"FromSpec applies no optimizations", "compile.SFCOptions", "compile.FuseStates"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("err = %v, want it to mention %q", err, want)
		}
	}
}

func TestParseNFErrors(t *testing.T) {
	if _, err := ParseNF("chain:\n  - a"); err == nil {
		t.Fatal("NF without name accepted")
	}
	if _, err := ParseNF("name: x"); err == nil {
		t.Fatal("NF without chain accepted")
	}
	if _, err := ParseNF("name: x\nchain: a"); err == nil {
		t.Fatal("scalar chain accepted")
	}
}

func TestYAMLParser(t *testing.T) {
	root, err := Parse("a: 1\nb:\n  c: 2\n  d:\n    - x\n    - y\n")
	if err != nil {
		t.Fatal(err)
	}
	if root.ScalarOr("a", "") != "1" {
		t.Fatal("scalar a")
	}
	b, ok := root.Get("b")
	if !ok || b.Kind != KindMap {
		t.Fatal("map b")
	}
	if b.ScalarOr("c", "") != "2" {
		t.Fatal("nested scalar c")
	}
	items, err := b.StringList("d")
	if err != nil || len(items) != 2 || items[0] != "x" {
		t.Fatalf("list d = %v, %v", items, err)
	}
}

func TestYAMLParserErrors(t *testing.T) {
	tests := []struct{ name, src string }{
		{"empty", "   \n# only comments\n"},
		{"root list", "- a\n- b"},
		{"tab indent", "a:\n\tb: 1"},
		{"no colon", "a: 1\nbogus line"},
		{"dup key", "a: 1\na: 2"},
		{"empty key", ": 1"},
		{"list in map", "a: 1\n- b"},
		{"bad dedent", "a:\n    b: 1\n  c: 2"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := Parse(tt.src); err == nil {
				t.Fatalf("Parse accepted %q", tt.src)
			}
		})
	}
}

func TestYAMLNestedListOfMaps(t *testing.T) {
	src := "rules:\n  -\n    proto: tcp\n    port: 80\n  -\n    proto: udp\n    port: 53\n"
	root, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	rules, ok := root.Get("rules")
	if !ok || rules.Kind != KindList || len(rules.List) != 2 {
		t.Fatalf("rules = %+v", rules)
	}
	if rules.List[0].ScalarOr("proto", "") != "tcp" || rules.List[1].ScalarOr("port", "") != "53" {
		t.Fatal("nested maps misparsed")
	}
}

func TestYAMLEmptyValue(t *testing.T) {
	root, err := Parse("a:\nb: 1")
	if err != nil {
		t.Fatal(err)
	}
	a, ok := root.Get("a")
	if !ok || a.Kind != KindScalar || a.Scalar != "" {
		t.Fatalf("empty value node = %+v", a)
	}
	if _, err := root.StringList("a"); err != nil {
		t.Fatalf("empty scalar as list: %v", err)
	}
}

func TestStringListErrors(t *testing.T) {
	root, err := Parse("a: scalar\nb:\n  -\n    c: 1")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := root.StringList("a"); err == nil {
		t.Fatal("scalar as list accepted")
	}
	if _, err := root.StringList("b"); err == nil {
		t.Fatal("list of maps as string list accepted")
	}
	if items, err := root.StringList("zzz"); err != nil || items != nil {
		t.Fatal("missing key must yield nil, nil")
	}
}

func TestParseStripsComments(t *testing.T) {
	m, err := ParseModule(mapperSpec)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range m.States {
		if strings.Contains(f, "#") {
			t.Fatalf("comment leaked into value %q", f)
		}
	}
}
