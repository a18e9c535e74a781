package main

import (
	"bytes"
	"os"
	"testing"
)

// TestMapperGolden runs the command on the paper's Listing 4 flow mapper
// and compares the read/write/emit dump with testdata/mapper.golden.
func TestMapperGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/mapper.golden")
	if err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-schema", "PerFlowState=ip,port", "testdata/mapper.nfc"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr.String())
	}
	if got := stdout.String(); got != string(want) {
		t.Fatalf("dump differs from testdata/mapper.golden:\n got:\n%s\nwant:\n%s", got, want)
	}
}

func TestExitCodes(t *testing.T) {
	tests := []struct {
		name string
		args []string
		want int
	}{
		{"bad schema root", []string{"-schema", "Bogus=x", "testdata/mapper.nfc"}, 2},
		{"bad schema entry", []string{"-schema", "PerFlowState", "testdata/mapper.nfc"}, 2},
		{"no file", []string{"-schema", "PerFlowState=ip,port"}, 2},
		{"unknown flag", []string{"-nosuch", "testdata/mapper.nfc"}, 2},
		{"missing file", []string{"testdata/nosuch.nfc"}, 1},
		{"field outside schema", []string{"-schema", "PerFlowState=ip", "testdata/mapper.nfc"}, 1},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run(tc.args, &stdout, &stderr); code != tc.want {
				t.Fatalf("exit %d, want %d (stderr: %s)", code, tc.want, stderr.String())
			}
			if stdout.Len() != 0 {
				t.Fatalf("stdout on failure: %q", stdout.String())
			}
			if stderr.Len() == 0 {
				t.Fatal("no diagnostic on stderr")
			}
		})
	}
}
