package faultnet

import (
	"bytes"
	"errors"
	"io"
	"net"
	"testing"
	"time"
)

// pipePair returns the two ends of an in-memory connection with the
// injector wrapped around the first.
func pipePair(t *testing.T, inj *Injector) (net.Conn, net.Conn) {
	t.Helper()
	a, b := net.Pipe()
	t.Cleanup(func() { _ = a.Close(); _ = b.Close() })
	return inj.Wrap(a), b
}

func TestZeroConfigIsTransparent(t *testing.T) {
	inj, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	w, r := pipePair(t, inj)
	msg := bytes.Repeat([]byte("transparent"), 100)
	go func() {
		_, _ = w.Write(msg)
		_ = w.Close()
	}()
	got, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatalf("got %d bytes, want %d", len(got), len(msg))
	}
	if s := inj.Stats(); s.Conns != 1 || s.Cuts != 0 || s.SplitWrites != 0 || s.DelayedOps != 0 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestConfigValidate(t *testing.T) {
	bad := []Config{
		{CutProb: -0.1},
		{CutProb: 1.5},
		{CutProb: 0.5}, // cut range missing
		{CutProb: 0.5, CutAfterMin: 10, CutAfterMax: 5}, // inverted range
		{Latency: time.Millisecond},                     // no cadence
	}
	for i, cfg := range bad {
		if _, err := New(cfg); err == nil {
			t.Fatalf("config %d accepted: %+v", i, cfg)
		}
	}
}

// TestCutTruncatesMidWrite pins the mid-message reset: a write whose
// kill point lands inside the buffer delivers exactly the bytes before
// the kill point, then fails with ErrInjected.
func TestCutTruncatesMidWrite(t *testing.T) {
	inj, err := New(Config{Seed: 7, CutProb: 1, CutAfterMin: 10, CutAfterMax: 10})
	if err != nil {
		t.Fatal(err)
	}
	w, r := pipePair(t, inj)

	got := make(chan []byte, 1)
	go func() {
		b, _ := io.ReadAll(r)
		got <- b
	}()
	n, err := w.Write([]byte("0123456789abcdef"))
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("err = %v", err)
	}
	if n != 10 {
		t.Fatalf("wrote %d bytes past a cut at 10", n)
	}
	select {
	case b := <-got:
		if string(b) != "0123456789" {
			t.Fatalf("peer saw %q", b)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("peer never saw EOF")
	}
	// The connection stays dead.
	if _, err := w.Write([]byte("x")); !errors.Is(err, ErrInjected) {
		t.Fatalf("post-cut write err = %v", err)
	}
	if _, err := w.Read(make([]byte, 1)); !errors.Is(err, ErrInjected) {
		t.Fatalf("post-cut read err = %v", err)
	}
	if s := inj.Stats(); s.Cuts != 1 {
		t.Fatalf("stats = %+v", s)
	}
}

// TestCutOnRead spends the byte budget with reads.
func TestCutOnRead(t *testing.T) {
	inj, err := New(Config{Seed: 1, CutProb: 1, CutAfterMin: 4, CutAfterMax: 4})
	if err != nil {
		t.Fatal(err)
	}
	w, r := pipePair(t, inj) // wrapped side reads this time
	go func() { _, _ = r.Write([]byte("abcdefgh")) }()

	buf := make([]byte, 8)
	n, err := w.Read(buf)
	if err != nil || n != 4 {
		// The wrapper clamps the read to the remaining budget and
		// delivers those bytes before the reset surfaces.
		t.Fatalf("first read = %d, %v", n, err)
	}
	if _, err := w.Read(buf); !errors.Is(err, ErrInjected) {
		t.Fatalf("second read err = %v", err)
	}
}

func TestPartialWritesStillDeliverEverything(t *testing.T) {
	inj, err := New(Config{Seed: 3, MaxWriteChunk: 3})
	if err != nil {
		t.Fatal(err)
	}
	w, r := pipePair(t, inj)
	msg := []byte("a complete message despite chunked delivery")
	go func() {
		if n, err := w.Write(msg); err != nil || n != len(msg) {
			t.Errorf("write = %d, %v", n, err)
		}
		_ = w.Close()
	}()
	got, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatalf("got %q", got)
	}
	if s := inj.Stats(); s.SplitWrites != 1 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestLatencyCadence(t *testing.T) {
	inj, err := New(Config{Seed: 5, Latency: time.Millisecond, LatencyEvery: 2})
	if err != nil {
		t.Fatal(err)
	}
	w, r := pipePair(t, inj)
	go func() {
		buf := make([]byte, 16)
		for {
			if _, err := r.Read(buf); err != nil {
				return
			}
		}
	}()
	for i := 0; i < 6; i++ {
		if _, err := w.Write([]byte("tick")); err != nil {
			t.Fatal(err)
		}
	}
	if s := inj.Stats(); s.DelayedOps != 3 {
		t.Fatalf("delayed ops = %d, want every 2nd of 6", s.DelayedOps)
	}
}

// TestDeterministicScripts pins the determinism contract: same seed
// and wrap order → identical kill points.
func TestDeterministicScripts(t *testing.T) {
	draw := func(seed int64) []int64 {
		inj, err := New(Config{Seed: seed, CutProb: 0.5, CutAfterMin: 100, CutAfterMax: 1 << 20})
		if err != nil {
			t.Fatal(err)
		}
		var cuts []int64
		for i := 0; i < 32; i++ {
			a, b := net.Pipe()
			c := inj.Wrap(a).(*Conn)
			cuts = append(cuts, c.sc.cutAfter)
			_ = a.Close()
			_ = b.Close()
		}
		return cuts
	}
	first, second := draw(42), draw(42)
	other := draw(43)
	same, diff := true, false
	for i := range first {
		if first[i] != second[i] {
			same = false
		}
		if first[i] != other[i] {
			diff = true
		}
	}
	if !same {
		t.Fatal("same seed drew different scripts")
	}
	if !diff {
		t.Fatal("different seeds drew identical scripts")
	}
}

// TestListenerAndDial exercises the TCP wrappers end to end.
func TestListenerAndDial(t *testing.T) {
	inj, err := New(Config{Seed: 9, MaxWriteChunk: 5})
	if err != nil {
		t.Fatal(err)
	}
	raw, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ln := inj.WrapListener(raw)
	defer ln.Close()

	done := make(chan []byte, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			done <- nil
			return
		}
		defer conn.Close()
		b, _ := io.ReadAll(conn)
		done <- b
	}()

	conn, err := inj.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write([]byte("over tcp, chunked both ways")); err != nil {
		t.Fatal(err)
	}
	_ = conn.Close()
	select {
	case b := <-done:
		if string(b) != "over tcp, chunked both ways" {
			t.Fatalf("got %q", b)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("accept side never finished")
	}
	if s := inj.Stats(); s.Conns != 2 {
		t.Fatalf("conns = %d", s.Conns)
	}
}
