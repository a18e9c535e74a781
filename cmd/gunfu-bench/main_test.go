package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestProfileFlagsNeedProfileMode: a profile-mode flag given without
// -trace or -attr is a usage error (exit 2, nothing on stdout), not a
// full-scale figure run that ignores it.
func TestProfileFlagsNeedProfileMode(t *testing.T) {
	cases := [][]string{{"-nf", "nat", "-tasks", "0"}, {"-exp", "fig2", "-quick", "-flows", "64"}}
	for _, name := range profileFlags {
		cases = append(cases, []string{"-" + name + "=1"})
	}
	for _, args := range cases {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 2 || stdout.Len() != 0 || !strings.Contains(stderr.String(), "needs -trace or -attr") {
			t.Fatalf("%q: exit %d, stdout %q, stderr %q; want exit 2 and the usage error", args, code, stdout.String(), stderr.String())
		}
	}
}

// TestProfileFlagsWithAttr: the same flags beside -attr run one
// observed window and print its tables.
func TestProfileFlagsWithAttr(t *testing.T) {
	var stdout, stderr bytes.Buffer
	args := []string{"-attr", "-nf", "nat", "-flows", "64", "-packets", "200", "-warmup", "0", "-tasks", "0"}
	if code := run(args, &stdout, &stderr); code != 0 || !strings.Contains(stdout.String(), "latency") {
		t.Fatalf("%q: exit %d, stderr %q, stdout %q", args, code, stderr.String(), stdout.String())
	}
}
