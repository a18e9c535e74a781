package director

import (
	"bufio"
	"encoding/json"
	"net"
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/gunfu-nfv/gunfu/internal/rt"
	"github.com/gunfu-nfv/gunfu/internal/sim"
	"github.com/gunfu-nfv/gunfu/internal/stats"
)

// latencyHist builds a histogram of the given samples.
func latencyHist(vs ...uint64) *stats.Histogram {
	var h stats.Histogram
	for _, v := range vs {
		h.Add(v)
	}
	return &h
}

func TestEnvelopeRoundTrip(t *testing.T) {
	ctr := sim.Counters{Cycles: 123, Instructions: 456, L1Misses: 7, StallCycles: 89}
	cases := []Envelope{
		{Type: TypeRegister, Agent: "w1"},
		{Type: TypeDeploy, Seq: 3, Deploy: &DeploySpec{
			NF: "sfc", Flows: 1024, Packets: 5000, Warmup: 100, PacketBytes: 128,
			Tasks: 16, Seed: 9, SFCLength: 5, PDRs: 8, StatsEvery: 500,
		}},
		{Type: TypeResult, Seq: 3, Agent: "w1", Result: &Result{
			Agent: "w1", Result: rt.Result{Packets: 5000, Bits: 2.56e6, Cycles: 1e6, FreqHz: 2.7e9, Counters: ctr},
		}},
		{Type: TypeStats, Seq: 3, Agent: "w1", Stats: &StatsReport{
			Agent: "w1", NF: "sfc", Window: 2,
			Result: rt.Result{Packets: 500, Bits: 2.56e5, Cycles: 1e5, FreqHz: 2.7e9, Counters: ctr},
		}},
		{Type: TypeStats, Seq: 3, Agent: "w1", Stats: &StatsReport{
			Agent: "w1", NF: "nat", Window: 0,
			Result:  rt.Result{Packets: 3, Bits: 1536, Cycles: 900, FreqHz: 2.7e9},
			Latency: latencyHist(120, 340, 2200),
		}},
		{Type: TypeDump, Agent: "w1"},
		{Type: TypeDumpDone, Agent: "w1", Dump: &DumpInfo{
			Agent: "w1", Path: "/tmp/gunfu-flight-w1-0.json", Events: 65536,
		}},
		{Type: TypeDumpDone, Agent: "w2", Dump: &DumpInfo{
			Agent: "w2", Error: "flight recorder disabled",
		}},
		{Type: TypeError, Seq: 4, Agent: "w1", Error: "unknown NF \"warp\""},
		{Type: TypeShutdown},
	}
	for _, want := range cases {
		b, err := encode(want)
		if err != nil {
			t.Fatalf("%s: %v", want.Type, err)
		}
		if b[len(b)-1] != '\n' {
			t.Fatalf("%s: encoded line not newline-terminated", want.Type)
		}
		var got Envelope
		if err := json.Unmarshal(b, &got); err != nil {
			t.Fatalf("%s: %v", want.Type, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s round trip:\n got %+v\nwant %+v", want.Type, got, want)
		}
	}
}

// fromRun copies into dst (a *Result or *StatsReport) every field of
// res that dst has by name, promoted fields included — the report an
// agent builds from a run — so the byte pin below does not depend on
// how the records declare their fields.
func fromRun(dst any, res rt.Result) {
	d, s := reflect.ValueOf(dst).Elem(), reflect.ValueOf(res)
	for i := 0; i < s.NumField(); i++ {
		if f := d.FieldByName(s.Type().Field(i).Name); f.IsValid() {
			f.Set(s.Field(i))
		}
	}
}

// TestWireBytesPinned pins the encoded TypeResult and TypeStats
// envelopes byte for byte, every field set: the window record's field
// names, order and number formats are the wire contract, and a run's
// AccessCycles never goes on the wire.
func TestWireBytesPinned(t *testing.T) {
	run := rt.Result{
		Packets: 5000, Bits: 2.56e6, Cycles: 1234567, FreqHz: 2.7e9, AccessCycles: 4242,
		Counters: sim.Counters{
			Cycles: 1, Instructions: 2, Reads: 3, Writes: 4, L1Hits: 5, L1Misses: 6,
			L2Hits: 7, L2Misses: 8, LLCHits: 9, LLCMisses: 10, PrefetchIssued: 11,
			PrefetchDropped: 12, PrefetchRedundant: 13, PrefetchUseful: 14, PrefetchLate: 15,
			StallCycles: 16, TaskSwitches: 17,
		},
	}
	res := &Result{Agent: "w1"}
	fromRun(res, run)
	rep := &StatsReport{Agent: "w1", NF: "sfc", Window: 3, Latency: latencyHist(1, 2, 3)}
	fromRun(rep, run)
	for _, tc := range []struct {
		env  Envelope
		want string
	}{
		{Envelope{Type: TypeResult, Seq: 7, Agent: "w1", Result: res}, `{"type":"result","seq":7,"agent":"w1","result":{"agent":"w1","packets":5000,"bits":2560000,"cycles":1234567,"freq_hz":2700000000,"counters":{"Cycles":1,"Instructions":2,"Reads":3,"Writes":4,"L1Hits":5,"L1Misses":6,"L2Hits":7,"L2Misses":8,"LLCHits":9,"LLCMisses":10,"PrefetchIssued":11,"PrefetchDropped":12,"PrefetchRedundant":13,"PrefetchUseful":14,"PrefetchLate":15,"StallCycles":16,"TaskSwitches":17}}}`},
		{Envelope{Type: TypeStats, Seq: 7, Agent: "w1", Stats: rep}, `{"type":"stats","seq":7,"agent":"w1","stats":{"agent":"w1","nf":"sfc","window":3,"packets":5000,"bits":2560000,"cycles":1234567,"freq_hz":2700000000,"counters":{"Cycles":1,"Instructions":2,"Reads":3,"Writes":4,"L1Hits":5,"L1Misses":6,"L2Hits":7,"L2Misses":8,"LLCHits":9,"LLCMisses":10,"PrefetchIssued":11,"PrefetchDropped":12,"PrefetchRedundant":13,"PrefetchUseful":14,"PrefetchLate":15,"StallCycles":16,"TaskSwitches":17},"latency":{"sub_bits":5,"counts":[0,1,1,1],"total":3,"sum":6,"min":1,"max":3}}}`},
	} {
		b, err := encode(tc.env)
		if err != nil {
			t.Fatal(err)
		}
		if got := string(b); got != tc.want+"\n" {
			t.Errorf("%s envelope bytes changed\n got %q\nwant %q", tc.env.Type, got, tc.want)
		}
	}
}

func TestStatsReportRates(t *testing.T) {
	r := StatsReport{Result: rt.Result{Packets: 1000, Bits: 512000, Cycles: 1000000, FreqHz: 1e9}}
	if g := r.Gbps(); g < 0.5119 || g > 0.5121 {
		t.Fatalf("Gbps = %v", g)
	}
	if m := r.Mpps(); m < 0.99 || m > 1.01 {
		t.Fatalf("Mpps = %v", m)
	}
	if (StatsReport{}).Gbps() != 0 || (StatsReport{}).Mpps() != 0 {
		t.Fatal("zero report must rate 0")
	}
}

// TestAgentSkipsMalformedAndUnknown drives a real Agent from a fake
// director: garbage lines and unknown message types must be ignored,
// and the agent must still serve the deploy that follows.
func TestAgentSkipsMalformedAndUnknown(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	a, err := NewAgent("w1", DefaultRegistry())
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- a.Run(ln.Addr().String()) }()

	conn, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	sc := bufio.NewScanner(conn)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	if !sc.Scan() {
		t.Fatal("no registration")
	}
	var reg Envelope
	if err := json.Unmarshal(sc.Bytes(), &reg); err != nil || reg.Type != TypeRegister || reg.Agent != "w1" {
		t.Fatalf("bad registration %q: %v", sc.Text(), err)
	}

	lines := []string{
		"{not json at all",             // malformed: skipped
		`{"type":"telepathy","seq":1}`, // unknown type: skipped
		`{"type":"deploy","seq":2,"deploy":{"nf":"nat","flows":64,"packets":200,"packet_bytes":64,"tasks":4}}`,
	}
	for _, l := range lines {
		if _, err := conn.Write([]byte(l + "\n")); err != nil {
			t.Fatal(err)
		}
	}
	if !sc.Scan() {
		t.Fatal("no reply to deploy")
	}
	var reply Envelope
	if err := json.Unmarshal(sc.Bytes(), &reply); err != nil {
		t.Fatal(err)
	}
	if reply.Type != TypeResult || reply.Seq != 2 || reply.Result == nil || reply.Result.Packets != 200 {
		t.Fatalf("reply = %+v", reply)
	}

	// A deploy without a spec is the error path, not a dropped message.
	if _, err := conn.Write([]byte(`{"type":"deploy","seq":3}` + "\n")); err != nil {
		t.Fatal(err)
	}
	if !sc.Scan() {
		t.Fatal("no reply to bad deploy")
	}
	if err := json.Unmarshal(sc.Bytes(), &reply); err != nil {
		t.Fatal(err)
	}
	if reply.Type != TypeError || reply.Seq != 3 || reply.Error == "" {
		t.Fatalf("reply = %+v", reply)
	}

	if _, err := conn.Write([]byte(`{"type":"shutdown"}` + "\n")); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("agent exit: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("agent did not shut down")
	}
}

// TestDeployUnexpectedReply covers the director's unknown-reply-type
// error path with a fake agent that answers a deploy with nonsense.
func TestDeployUnexpectedReply(t *testing.T) {
	d := New()
	addr, err := d.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte(`{"type":"register","agent":"fake"}` + "\n")); err != nil {
		t.Fatal(err)
	}
	if err := d.WaitAgents(1, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	go func() {
		sc := bufio.NewScanner(conn)
		if !sc.Scan() {
			return
		}
		var env Envelope
		if json.Unmarshal(sc.Bytes(), &env) != nil {
			return
		}
		resp, _ := encode(Envelope{Type: "telepathy", Seq: env.Seq})
		_, _ = conn.Write(resp)
	}()

	_, err = d.Deploy("fake", DeploySpec{NF: "nat", Flows: 1, Packets: 1, PacketBytes: 64}, 5*time.Second)
	if err == nil || !strings.Contains(err.Error(), "unexpected reply") {
		t.Fatalf("err = %v", err)
	}
}
