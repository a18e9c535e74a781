package nfc

import "fmt"

// Root names an NFState family addressable from NF-C.
type Root int

// The NF-C state roots.
const (
	// RootPacket addresses packet-state fields (Packet.src_ip, …).
	RootPacket Root = iota + 1
	// RootPerFlow addresses the matched per-flow record.
	RootPerFlow
	// RootSubFlow addresses the matched sub-flow record.
	RootSubFlow
	// RootControl addresses the module's control state.
	RootControl
	// RootTemp addresses cross-action temporary state.
	RootTemp
)

// rootNames spells each root as it appears in source.
var rootNames = [...]string{
	RootPacket:  "Packet",
	RootPerFlow: "PerFlowState",
	RootSubFlow: "SubFlowState",
	RootControl: "ControlState",
	RootTemp:    "TempState",
}

// String names the root as it appears in source.
func (r Root) String() string {
	if r >= RootPacket && int(r) < len(rootNames) {
		return rootNames[r]
	}
	return fmt.Sprintf("Root(%d)", int(r))
}

// ParseRoot resolves a root keyword ("Packet", "PerFlowState", …).
func ParseRoot(name string) (Root, bool) {
	for r := RootPacket; int(r) < len(rootNames); r++ {
		if rootNames[r] == name {
			return r, true
		}
	}
	return 0, false
}

// ActionAST is one parsed NFAction definition.
type ActionAST struct {
	// Name is the action name from NFAction(name).
	Name string
	// Body is the statement list.
	Body []Stmt
	// Line is the source line of the definition.
	Line int
}

// Stmt is a statement node.
type Stmt interface{ stmt() }

// AssignStmt is "lvalue op expr;" with op one of =, +=, -=.
type AssignStmt struct {
	LV   LValue
	Op   string
	Expr Expr
	Line int
}

// IfStmt is "if (cond) {…} else {…}".
type IfStmt struct {
	Cond Expr
	Then []Stmt
	Else []Stmt
	Line int
}

// EmitStmt is "Emit(Event_X);" — it ends the action with the event.
type EmitStmt struct {
	Event string
	Line  int
}

// VarStmt declares a local: "var x = expr;".
type VarStmt struct {
	Name string
	Expr Expr
	Line int
}

func (*AssignStmt) stmt() {}
func (*IfStmt) stmt()     {}
func (*EmitStmt) stmt()   {}
func (*VarStmt) stmt()    {}

// Expr is an expression node; all values are uint64.
type Expr interface{ expr() }

// BinaryExpr applies Op to L and R.
type BinaryExpr struct {
	Op   string
	L, R Expr
}

// UnaryExpr applies Op (- or !) to X.
type UnaryExpr struct {
	Op string
	X  Expr
}

// NumberLit is an integer literal.
type NumberLit struct{ Val uint64 }

// RefExpr reads a state field.
type RefExpr struct {
	Root  Root
	Field string
}

// VarExpr reads a local variable.
type VarExpr struct{ Name string }

func (*BinaryExpr) expr() {}
func (*UnaryExpr) expr()  {}
func (*NumberLit) expr()  {}
func (*RefExpr) expr()    {}
func (*VarExpr) expr()    {}

// LValue is an assignable location.
type LValue interface{ lvalue() }

// RefLV assigns a state field.
type RefLV struct {
	Root  Root
	Field string
}

// VarLV assigns a local variable.
type VarLV struct{ Name string }

func (*RefLV) lvalue() {}
func (*VarLV) lvalue() {}
