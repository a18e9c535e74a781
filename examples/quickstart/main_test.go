package main

import (
	"bytes"
	"os"
	"testing"
)

// TestGolden holds the example's report to testdata/stdout.golden. The
// simulated figures are deterministic, so any change to what the
// example measures shows up as a diff.
func TestGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/stdout.golden")
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := run(&out); err != nil {
		t.Fatal(err)
	}
	if got := out.String(); got != string(want) {
		t.Fatalf("output differs from testdata/stdout.golden:\n got:\n%s\nwant:\n%s", got, want)
	}
}
