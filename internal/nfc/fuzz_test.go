package nfc

import (
	"reflect"
	"testing"
)

// fuzzSchema is the union of the schemas nfc_test.go compiles against,
// so every seed that compiles there compiles here too.
var fuzzSchema = Schema{RootPerFlow: {"ip", "port"}, RootTemp: {"t0"}, RootControl: {"mode"}}

// FuzzParseCompile runs the NF-C front end, Parse then Compile, on
// arbitrary source. It never panics, and compiling an accepted action
// twice extracts the same Reads, Writes and Events: the access sets
// prefetch and charging trust are a function of the source alone.
func FuzzParseCompile(f *testing.F) {
	for _, src := range []string{mapperSrc, calcSrc, cmpSrc, divZeroSrc, accSrc, cfgSrc, quietSrc, tempSrc} {
		f.Add(src)
	}
	for _, cases := range [][]struct{ name, src string }{parseErrors, compileErrors} {
		for _, tt := range cases {
			f.Add(tt.src)
		}
	}
	f.Fuzz(func(t *testing.T, src string) {
		actions, err := Parse(src)
		if err != nil {
			return
		}
		for _, a := range actions {
			c1, err := Compile(a, fuzzSchema)
			if err != nil {
				continue
			}
			c2, err := Compile(a, fuzzSchema)
			if err != nil {
				t.Fatalf("action %s compiled once, then failed: %v", a.Name, err)
			}
			if !reflect.DeepEqual(c1.Reads, c2.Reads) || !reflect.DeepEqual(c1.Writes, c2.Writes) ||
				!reflect.DeepEqual(c1.Events, c2.Events) {
				t.Fatalf("action %s compiled twice: reads %v/%v, writes %v/%v, events %v/%v",
					a.Name, c1.Reads, c2.Reads, c1.Writes, c2.Writes, c1.Events, c2.Events)
			}
		}
	})
}
