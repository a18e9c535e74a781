package spec

import "testing"

// The seed corpus is the paper's Listings 1–3 as examples/nfc-pipeline
// spells them; FuzzParseNF adds Listing 3 with an optimize request,
// which ParseNF rejects.
const (
	listing1 = `
name: flow_classifier
category: StatefulClassifier
parameters:
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
  check_1:
    - bucket # match state
  check_2:
    - bucket
`
	listing2 = `
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
	listing3 = `
name: nat
chain:
  - flow_classifier
  - flow_mapper
`
)

var listings = []string{listing1, listing2, listing3}

// FuzzParseTransition: an accepted transition, re-printed as
// "From,Event->To", parses back to the same Transition.
func FuzzParseTransition(f *testing.F) {
	for _, src := range []string{listing1, listing2} {
		m, err := ParseModule(src)
		if err != nil {
			f.Fatal(err)
		}
		for _, tr := range m.Transitions {
			f.Add(tr.From + "," + tr.Event + "->" + tr.To)
		}
	}
	f.Add(" a , b -> c ")
	f.Add("a,b,c->d->e")
	f.Fuzz(func(t *testing.T, s string) {
		tr, err := ParseTransition(s)
		if err != nil {
			return
		}
		again, err := ParseTransition(tr.From + "," + tr.Event + "->" + tr.To)
		if err != nil {
			t.Fatalf("%q parsed to %+v, whose re-print is rejected: %v", s, tr, err)
		}
		if again != tr {
			t.Fatalf("%q parsed to %+v, its re-print to %+v", s, tr, again)
		}
	})
}

// FuzzParseNF: ParseNF never panics, and a document it accepts has a
// non-empty chain and no optimize key.
func FuzzParseNF(f *testing.F) {
	for _, src := range listings {
		f.Add(src)
	}
	f.Add(listing3 + "optimize:\n  - data_packing\n")
	f.Fuzz(func(t *testing.T, src string) {
		n, err := ParseNF(src)
		if err != nil {
			return
		}
		if len(n.Stages) == 0 {
			t.Fatalf("accepted an empty chain: %+v", n)
		}
		if root, _ := Parse(src); root != nil {
			if _, ok := root.Get("optimize"); ok {
				t.Fatalf("accepted an optimize request: %q", src)
			}
		}
	})
}

// FuzzParseModule: ParseModule never panics, and a module it accepts is
// named and has an entry state.
func FuzzParseModule(f *testing.F) {
	for _, src := range listings {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		m, err := ParseModule(src)
		if err != nil {
			return
		}
		if entry, _ := m.Entry(); m.Name == "" || entry == "" {
			t.Fatalf("accepted module %q with entry %q", m.Name, entry)
		}
	})
}
