package nfc

import (
	"strings"
	"testing"

	"github.com/gunfu-nfv/gunfu/internal/model"
	"github.com/gunfu-nfv/gunfu/internal/pkt"
)

// mapperSrc is the paper's Listing 4 flow mapper.
const mapperSrc = `
// Implementation Using NF-C
NFAction(flow_mapper) {
  Packet.src_ip = PerFlowState.ip;
  Packet.src_port = PerFlowState.port;
  Emit(Event_Packet);
}
`

func TestParseMapper(t *testing.T) {
	actions, err := Parse(mapperSrc)
	if err != nil {
		t.Fatal(err)
	}
	if len(actions) != 1 || actions[0].Name != "flow_mapper" {
		t.Fatalf("actions = %+v", actions)
	}
	if len(actions[0].Body) != 3 {
		t.Fatalf("body = %d statements, want 3", len(actions[0].Body))
	}
}

// parseErrors are sources Parse must reject.
var parseErrors = []struct{ name, src string }{
	{"empty", "  // nothing\n"},
	{"not action", "foo(bar){}"},
	{"missing paren", "NFAction flow {}"},
	{"unterminated block", "NFAction(a) { Emit(Event_X);"},
	{"missing semicolon", "NFAction(a) { Emit(Event_X) }"},
	{"bad assign op", "NFAction(a) { Packet.src_ip * 2; }"},
	{"duplicate action", "NFAction(a) { Emit(Event_X); } NFAction(a) { Emit(Event_X); }"},
	{"bad char", "NFAction(a) { Packet.src_ip = $; }"},
	{"missing field", "NFAction(a) { Packet = 1; }"},
}

func TestParseErrors(t *testing.T) {
	for _, tt := range parseErrors {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := Parse(tt.src); err == nil {
				t.Fatalf("Parse accepted %q", tt.src)
			}
		})
	}
}

func TestEventNameMapping(t *testing.T) {
	tests := []struct{ in, want string }{
		{"Event_Packet", "packet"},
		{"Event_MATCH_SUCCESS", "match_success"},
		{"done", "done"},
	}
	for _, tt := range tests {
		if got := eventName(tt.in); got != tt.want {
			t.Errorf("eventName(%q) = %q, want %q", tt.in, got, tt.want)
		}
	}
}

func mapperSchema() Schema {
	return Schema{RootPerFlow: {"ip", "port"}}
}

func compileMapper(t *testing.T) *Compiled {
	t.Helper()
	actions, err := Parse(mapperSrc)
	if err != nil {
		t.Fatal(err)
	}
	c, err := Compile(actions[0], mapperSchema())
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestCompileExtractsAccessSets(t *testing.T) {
	c := compileMapper(t)
	if got := c.Reads[RootPerFlow]; len(got) != 2 || got[0] != "ip" || got[1] != "port" {
		t.Fatalf("per-flow reads = %v", got)
	}
	if got := c.Writes[RootPacket]; len(got) != 2 {
		t.Fatalf("packet writes = %v", got)
	}
	if len(c.Events) != 1 || c.Events[0] != "packet" {
		t.Fatalf("events = %v", c.Events)
	}
	if c.Cost == 0 {
		t.Fatal("cost estimate is zero")
	}
}

// compileErrors are sources Parse accepts and Compile must reject
// against mapperSchema.
var compileErrors = []struct{ name, src string }{
	{"unknown packet field", "NFAction(a) { Packet.warp = 1; Emit(Event_X); }"},
	{"unknown perflow field", "NFAction(a) { PerFlowState.zzz = 1; Emit(Event_X); }"},
	{"no schema root", "NFAction(a) { SubFlowState.x = 1; Emit(Event_X); }"},
	{"undeclared local", "NFAction(a) { x = 1; Emit(Event_X); }"},
	{"undeclared local read", "NFAction(a) { var y = x; Emit(Event_X); }"},
	{"redeclared local", "NFAction(a) { var x = 1; var x = 2; Emit(Event_X); }"},
	{"too many locals", "NFAction(a) { var a0=0; var a1=0; var a2=0; var a3=0; var a4=0; var a5=0; var a6=0; var a7=0; var a8=0; Emit(Event_X); }"},
}

func TestCompileErrors(t *testing.T) {
	for _, tt := range compileErrors {
		t.Run(tt.name, func(t *testing.T) {
			actions, err := Parse(tt.src)
			if err != nil {
				t.Fatalf("parse: %v", err)
			}
			if _, err := Compile(actions[0], mapperSchema()); err == nil {
				t.Fatalf("Compile accepted %q", tt.src)
			}
		})
	}
}

// newTestStore is a per-flow store matching mapperSchema.
func newTestStore(t *testing.T) *Store {
	t.Helper()
	store, err := NewStore([]string{"ip", "port"}, 8)
	if err != nil {
		t.Fatal(err)
	}
	return store
}

func TestMapperExecution(t *testing.T) {
	c := compileMapper(t)
	store := newTestStore(t)
	if err := store.Set(3, 0, 0x01020304); err != nil { // ip
		t.Fatal(err)
	}
	if err := store.Set(3, 1, 4242); err != nil { // port
		t.Fatal(err)
	}
	e := &model.Exec{FlowIdx: 3, Pkt: &pkt.Packet{}}
	ev := c.run(e, store)
	if ev != 0 {
		t.Fatalf("emitted event index %d", ev)
	}
	if e.Pkt.Tuple.SrcIP != 0x01020304 || e.Pkt.Tuple.SrcPort != 4242 {
		t.Fatalf("packet not rewritten: %+v", e.Pkt.Tuple)
	}
}

// calcSrc exercises locals, arithmetic, compound assignment and if/else.
const calcSrc = `
NFAction(calc) {
  var x = 10;
  var y = x * 3 + 2;     // 32
  y -= 2;                // 30
  PerFlowState.ip = y / 3; // 10
  if (PerFlowState.ip == 10) {
    PerFlowState.port = (1 << 4) | 3; // 19
    Emit(Event_Hit);
  } else {
    Emit(Event_Miss);
  }
}
`

func TestArithmeticAndControlFlow(t *testing.T) {
	actions, err := Parse(calcSrc)
	if err != nil {
		t.Fatal(err)
	}
	c, err := Compile(actions[0], mapperSchema())
	if err != nil {
		t.Fatal(err)
	}
	store := newTestStore(t)
	e := &model.Exec{FlowIdx: 0, Pkt: &pkt.Packet{}}
	ev := c.run(e, store)
	if c.Events[ev] != "hit" {
		t.Fatalf("emitted %q, want hit", c.Events[ev])
	}
	ip, _ := store.Get(0, 0)
	port, _ := store.Get(0, 1)
	if ip != 10 || port != 19 {
		t.Fatalf("state = ip %d port %d, want 10/19", ip, port)
	}
}

// cmpSrc branches on packet-field comparisons.
const cmpSrc = `
NFAction(cmp) {
  if (Packet.src_port >= 1000 && Packet.src_port != 2000) {
    Emit(Event_High);
  } else {
    Emit(Event_Low);
  }
}
`

func TestElseBranchAndComparisons(t *testing.T) {
	actions, err := Parse(cmpSrc)
	if err != nil {
		t.Fatal(err)
	}
	c, err := Compile(actions[0], Schema{})
	if err != nil {
		t.Fatal(err)
	}
	for _, tt := range []struct {
		port uint16
		want string
	}{{1500, "high"}, {500, "low"}, {2000, "low"}} {
		e := &model.Exec{Pkt: &pkt.Packet{Tuple: pkt.FiveTuple{SrcPort: tt.port}}}
		ev := c.run(e, nil) // packet fields only: no store needed
		if c.Events[ev] != tt.want {
			t.Fatalf("port %d emitted %q, want %q", tt.port, c.Events[ev], tt.want)
		}
	}
}

// divZeroSrc divides and takes a remainder by zero.
const divZeroSrc = `
NFAction(z) {
  var a = 10 / 0;
  var b = 10 % 0;
  PerFlowState.ip = a + b;
  Emit(Event_X);
}
`

func TestDivModByZeroSafe(t *testing.T) {
	actions, err := Parse(divZeroSrc)
	if err != nil {
		t.Fatal(err)
	}
	c, err := Compile(actions[0], mapperSchema())
	if err != nil {
		t.Fatal(err)
	}
	store := newTestStore(t)
	e := &model.Exec{FlowIdx: 0, Pkt: &pkt.Packet{}}
	c.run(e, store) // must not panic
	if v, _ := store.Get(0, 0); v != 0 {
		t.Fatalf("division by zero yielded %d", v)
	}
}

// accSrc accumulates into per-flow state.
const accSrc = `NFAction(acc) { PerFlowState.ip += 5; Emit(Event_X); }`

func TestCompoundAssignOnState(t *testing.T) {
	actions, err := Parse(accSrc)
	if err != nil {
		t.Fatal(err)
	}
	c, err := Compile(actions[0], mapperSchema())
	if err != nil {
		t.Fatal(err)
	}
	// A compound assignment both reads and writes the field.
	if got := c.Reads[RootPerFlow]; len(got) != 1 || got[0] != "ip" {
		t.Fatalf("reads = %v", got)
	}
	if got := c.Writes[RootPerFlow]; len(got) != 1 || got[0] != "ip" {
		t.Fatalf("writes = %v", got)
	}
	store := newTestStore(t)
	e := &model.Exec{FlowIdx: 1, Pkt: &pkt.Packet{}}
	c.run(e, store)
	c.run(e, store)
	if v, _ := store.Get(1, 0); v != 10 {
		t.Fatalf("accumulator = %d, want 10", v)
	}
}

func TestToActionIntegration(t *testing.T) {
	c := compileMapper(t)
	store := newTestStore(t)
	if err := store.Set(0, 0, 7); err != nil {
		t.Fatal(err)
	}
	if err := store.Set(0, 1, 8); err != nil {
		t.Fatal(err)
	}
	b := model.NewBuilder("p")
	act, err := ToAction(c, store, b)
	if err != nil {
		t.Fatal(err)
	}
	if act.Name != "flow_mapper" {
		t.Fatalf("action = %+v", act)
	}
	if len(act.Reads) == 0 || len(act.Writes) == 0 {
		t.Fatal("access declarations missing")
	}
	e := &model.Exec{FlowIdx: 0, Pkt: &pkt.Packet{}}
	ev := act.Fn(e)
	if ev != b.Event("packet") {
		t.Fatalf("Fn returned event %d", ev)
	}
	if e.Pkt.Tuple.SrcIP != 7 {
		t.Fatal("Fn did not execute body")
	}
}

// cfgSrc writes control state.
const cfgSrc = `NFAction(cfg) { ControlState.mode = 1; Emit(Event_X); }`

// tempSrc carries temp state from one action to the next.
const tempSrc = `
NFAction(a) { TempState.t0 = 42; Emit(Event_X); }
NFAction(b) { PerFlowState.ip = TempState.t0; Emit(Event_X); }
`

// TestToActionRefusesUnboundRoots: only Packet and PerFlowState bind
// at run time. An action on another root compiles, for its access
// sets, but ToAction refuses it with an error naming the action and
// the root. "temp alias" is the regression that motivated the rule:
// bound, its local x and TempState.t0 shared the task's first temp
// word, so the action wrote 5 where TempState.t0 held 77.
func TestToActionRefusesUnboundRoots(t *testing.T) {
	for _, tt := range []struct {
		name, src, root string
		schema          Schema
	}{
		{"temp alias", "NFAction(b) { var x = 5; Packet.src_port = TempState.t0; Emit(Event_Done); }",
			"TempState", Schema{RootTemp: {"t0"}}},
		{"temp carry", tempSrc, "TempState", Schema{RootPerFlow: {"ip", "port"}, RootTemp: {"t0"}}},
		{"control", cfgSrc, "ControlState", Schema{RootControl: {"mode"}}},
		{"subflow", "NFAction(s) { SubFlowState.n += 1; }", "SubFlowState", Schema{RootSubFlow: {"n"}}},
	} {
		t.Run(tt.name, func(t *testing.T) {
			actions, err := Parse(tt.src)
			if err != nil {
				t.Fatal(err)
			}
			for _, a := range actions {
				c, err := Compile(a, tt.schema)
				if err != nil {
					t.Fatal(err)
				}
				_, err = ToAction(c, newTestStore(t), model.NewBuilder("p"))
				if err == nil || !strings.Contains(err.Error(), tt.root) || !strings.Contains(err.Error(), "action "+c.Name) {
					t.Fatalf("ToAction(%s) err = %v, want one naming the action and %s", c.Name, err, tt.root)
				}
			}
		})
	}
}

// quietSrc emits no event.
const quietSrc = `NFAction(quiet) { PerFlowState.ip = 1; }`

func TestNoEmitDefaultsToDone(t *testing.T) {
	actions, err := Parse(quietSrc)
	if err != nil {
		t.Fatal(err)
	}
	c, err := Compile(actions[0], mapperSchema())
	if err != nil {
		t.Fatal(err)
	}
	b := model.NewBuilder("p")
	act, err := ToAction(c, newTestStore(t), b)
	if err != nil {
		t.Fatal(err)
	}
	e := &model.Exec{FlowIdx: 0, Pkt: &pkt.Packet{}}
	if ev := act.Fn(e); ev != model.EvDone {
		t.Fatalf("event = %d, want done", ev)
	}
}

func TestStoreValidation(t *testing.T) {
	if _, err := NewStore(nil, 4); err == nil {
		t.Fatal("empty fields accepted")
	}
	if _, err := NewStore([]string{"a"}, 0); err == nil {
		t.Fatal("zero records accepted")
	}
	s, err := NewStore([]string{"a"}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get(5, 0); err == nil {
		t.Fatal("out-of-range Get accepted")
	}
	if err := s.Set(0, 9, 1); err == nil {
		t.Fatal("out-of-range Set accepted")
	}
	if got := s.Fields(); len(got) != 1 || got[0] != "a" {
		t.Fatalf("Fields = %v", got)
	}
}

func TestPacketFieldNamesSorted(t *testing.T) {
	names := PacketFieldNames()
	if len(names) < 5 {
		t.Fatalf("names = %v", names)
	}
	if !strings.Contains(strings.Join(names, ","), "src_ip") {
		t.Fatal("src_ip missing")
	}
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Fatal("names not sorted")
		}
	}
}
