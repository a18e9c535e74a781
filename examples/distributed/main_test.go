package main

import (
	"bytes"
	"os"
	"regexp"
	"testing"
)

// listening matches the one line that varies between runs: the
// director's ephemeral loopback port.
var listening = regexp.MustCompile(`(?m)^director listening on \S+$`)

// TestGolden holds the example's report to testdata/stdout.golden,
// every line but the listener address: agent order and each agent's
// simulated figures are deterministic.
func TestGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/stdout.golden")
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := run(&out); err != nil {
		t.Fatal(err)
	}
	got := listening.ReplaceAllString(out.String(), "director listening on <addr>")
	if got != string(want) {
		t.Fatalf("output differs from testdata/stdout.golden:\n got:\n%s\nwant:\n%s", got, want)
	}
}
