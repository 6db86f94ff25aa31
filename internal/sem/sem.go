// Package sem performs semantic analysis of mini-FORTRAN programs:
// symbol resolution (with classic I–N implicit typing), expression
// typing, disambiguation of NAME(args) into array references,
// intrinsic applications, or user function calls, and call-signature
// checking. Its output (Info) is consumed by the IR generator.
package sem

import (
	"regalloc/internal/ast"
	"regalloc/internal/source"
)

// SymKind classifies a symbol within a unit.
type SymKind int

// Symbol kinds.
const (
	SymParam SymKind = iota
	SymLocal
	SymRet // the function-name pseudo-variable holding the return value
)

// Symbol is a resolved name within a unit.
type Symbol struct {
	Name  string
	Kind  SymKind
	Type  ast.Type
	Dims  []ast.Dim // non-empty for arrays
	Index int       // parameter position for SymParam
}

// IsArray reports whether the symbol is an array.
func (s *Symbol) IsArray() bool { return len(s.Dims) > 0 }

// CallKind classifies a parsed NAME(args) expression.
type CallKind int

// Call kinds.
const (
	CallArray CallKind = iota
	CallIntrinsic
	CallUser
)

// Intrinsic identifies a built-in function. Generic and specific
// FORTRAN names (ABS/IABS/DABS, MAX/MAX0/AMAX1/DMAX1, …) map to the
// same intrinsic; the operand types select the integer or real form.
type Intrinsic int

// Intrinsics.
const (
	IntrAbs Intrinsic = iota
	IntrSqrt
	IntrMod
	IntrMin
	IntrMax
	IntrInt   // truncate real -> integer
	IntrFloat // integer -> real
	IntrSign  // SIGN(a,b): |a| * sign(b)
	IntrExp
	IntrLog
	IntrSin
	IntrCos
)

var intrinsics = map[string]Intrinsic{
	"ABS": IntrAbs, "IABS": IntrAbs, "DABS": IntrAbs,
	"SQRT": IntrSqrt, "DSQRT": IntrSqrt,
	"MOD": IntrMod, "AMOD": IntrMod, "DMOD": IntrMod,
	"MIN": IntrMin, "MIN0": IntrMin, "AMIN1": IntrMin, "DMIN1": IntrMin,
	"MAX": IntrMax, "MAX0": IntrMax, "AMAX1": IntrMax, "DMAX1": IntrMax,
	"INT": IntrInt, "IDINT": IntrInt, "IFIX": IntrInt,
	"FLOAT": IntrFloat, "DBLE": IntrFloat, "DFLOAT": IntrFloat, "SNGL": IntrFloat,
	"SIGN": IntrSign, "ISIGN": IntrSign, "DSIGN": IntrSign,
	"EXP": IntrExp, "DEXP": IntrExp,
	"LOG": IntrLog, "ALOG": IntrLog, "DLOG": IntrLog,
	"SIN": IntrSin, "DSIN": IntrSin,
	"COS": IntrCos, "DCOS": IntrCos,
}

// LookupIntrinsic resolves an intrinsic by (upper-case) name.
func LookupIntrinsic(name string) (Intrinsic, bool) {
	in, ok := intrinsics[name]
	return in, ok
}

// ParamSig describes one formal parameter of a unit.
type ParamSig struct {
	Name    string
	Type    ast.Type
	IsArray bool
}

// Sig is a unit's call signature.
type Sig struct {
	Name   string
	Kind   ast.UnitKind
	Ret    ast.Type
	Params []ParamSig
}

// UnitInfo holds per-unit analysis results.
type UnitInfo struct {
	Unit      *ast.Unit
	Symbols   map[string]*Symbol
	ExprType  map[ast.Expr]ast.Type
	CallKind  map[*ast.CallExpr]CallKind
	Intrinsic map[*ast.CallExpr]Intrinsic
}

// Sym returns the symbol for name, or nil.
func (ui *UnitInfo) Sym(name string) *Symbol { return ui.Symbols[name] }

// TypeOf returns the computed type of an expression.
func (ui *UnitInfo) TypeOf(e ast.Expr) ast.Type { return ui.ExprType[e] }

// Info is the result of analyzing a whole program.
type Info struct {
	Units map[string]*UnitInfo
	Sigs  map[string]*Sig
}

// ImplicitType returns the classic FORTRAN implicit type of a name:
// INTEGER for names starting I through N, REAL otherwise.
func ImplicitType(name string) ast.Type {
	if name == "" {
		return ast.TypeReal
	}
	if c := name[0]; c >= 'I' && c <= 'N' {
		return ast.TypeInt
	}
	return ast.TypeReal
}

// Check analyzes prog and returns the semantic info, or an error
// list describing every problem found.
func Check(prog *ast.Program) (*Info, error) {
	c := &checker{
		info: &Info{
			Units: make(map[string]*UnitInfo),
			Sigs:  make(map[string]*Sig),
		},
	}
	// Pass 1: collect signatures so calls may be forward references.
	for _, u := range prog.Units {
		c.collectSig(u)
	}
	// Pass 2: analyze bodies.
	for _, u := range prog.Units {
		c.checkUnit(u)
	}
	return c.info, c.errs.Err()
}

type checker struct {
	info *Info
	errs source.ErrorList
	// current unit state
	ui   *UnitInfo
	unit *ast.Unit
}

func (c *checker) errorf(pos source.Pos, format string, args ...interface{}) {
	c.errs.Add(pos, format, args...)
}

func (c *checker) collectSig(u *ast.Unit) {
	if _, dup := c.info.Sigs[u.Name]; dup {
		c.errorf(u.Pos, "duplicate unit %s", u.Name)
		return
	}
	sig := &Sig{Name: u.Name, Kind: u.Kind}
	if u.Kind == ast.KindFunction {
		sig.Ret = u.RetType
		if sig.Ret == ast.TypeNone {
			sig.Ret = ImplicitType(u.Name)
		}
	}
	declFor := func(name string) *ast.Decl {
		for _, d := range u.Decls {
			if d.Name == name {
				return d
			}
		}
		return nil
	}
	for _, pname := range u.Params {
		ps := ParamSig{Name: pname, Type: ImplicitType(pname)}
		if d := declFor(pname); d != nil {
			ps.Type = d.Type
			ps.IsArray = d.IsArray()
		}
		sig.Params = append(sig.Params, ps)
	}
	c.info.Sigs[u.Name] = sig
}

func (c *checker) checkUnit(u *ast.Unit) {
	ui := &UnitInfo{
		Unit:      u,
		Symbols:   make(map[string]*Symbol),
		ExprType:  make(map[ast.Expr]ast.Type),
		CallKind:  make(map[*ast.CallExpr]CallKind),
		Intrinsic: make(map[*ast.CallExpr]Intrinsic),
	}
	c.ui = ui
	c.unit = u
	if _, dup := c.info.Units[u.Name]; dup {
		return // already reported in collectSig
	}
	c.info.Units[u.Name] = ui

	// Parameters.
	for i, pname := range u.Params {
		if _, dup := ui.Symbols[pname]; dup {
			c.errorf(u.Pos, "duplicate parameter %s", pname)
			continue
		}
		ui.Symbols[pname] = &Symbol{Name: pname, Kind: SymParam, Type: ImplicitType(pname), Index: i}
	}
	// Declarations refine parameter types or introduce locals.
	for _, d := range u.Decls {
		if sym, ok := ui.Symbols[d.Name]; ok {
			if sym.Kind != SymParam {
				c.errorf(d.Pos, "duplicate declaration of %s", d.Name)
				continue
			}
			sym.Type = d.Type
			sym.Dims = d.Dims
		} else {
			ui.Symbols[d.Name] = &Symbol{Name: d.Name, Kind: SymLocal, Type: d.Type, Dims: d.Dims}
		}
		c.checkDims(d)
	}
	// The function-name return variable.
	if u.Kind == ast.KindFunction {
		ret := c.info.Sigs[u.Name].Ret
		if _, clash := ui.Symbols[u.Name]; clash {
			c.errorf(u.Pos, "function name %s conflicts with a declaration", u.Name)
		} else {
			ui.Symbols[u.Name] = &Symbol{Name: u.Name, Kind: SymRet, Type: ret}
		}
	}
	c.checkStmts(u.Body)
}

// checkDims validates array dimensions: '*' only last and only for
// parameters; adjustable dims must name integer scalar parameters;
// constant dims must be positive; local arrays must be fully
// constant.
func (c *checker) checkDims(d *ast.Decl) {
	if len(d.Dims) == 0 {
		return
	}
	if len(d.Dims) > 2 {
		c.errorf(d.Pos, "%s: at most 2 array dimensions are supported", d.Name)
	}
	isParam := false
	for _, p := range c.unit.Params {
		if p == d.Name {
			isParam = true
		}
	}
	for i, dim := range d.Dims {
		switch {
		case dim.Star:
			if !isParam {
				c.errorf(d.Pos, "%s: '*' dimension is only legal for parameters", d.Name)
			}
			if i != len(d.Dims)-1 {
				c.errorf(d.Pos, "%s: '*' must be the last dimension", d.Name)
			}
		case dim.Name != "":
			if !isParam {
				c.errorf(d.Pos, "%s: adjustable dimension %s is only legal for parameters", d.Name, dim.Name)
			}
			sym := c.ui.Symbols[dim.Name]
			if sym == nil || sym.Kind != SymParam || sym.IsArray() {
				c.errorf(d.Pos, "%s: dimension %s must be a scalar parameter", d.Name, dim.Name)
			} else if sym.Type != ast.TypeInt {
				c.errorf(d.Pos, "%s: dimension %s must be INTEGER", d.Name, dim.Name)
			}
		default:
			if dim.Const <= 0 {
				c.errorf(d.Pos, "%s: array dimension must be positive", d.Name)
			}
		}
	}
}

// lookupOrImplicit resolves name, creating an implicitly-typed local
// on first use (classic FORTRAN behaviour).
func (c *checker) lookupOrImplicit(name string) *Symbol {
	if sym, ok := c.ui.Symbols[name]; ok {
		return sym
	}
	sym := &Symbol{Name: name, Kind: SymLocal, Type: ImplicitType(name)}
	c.ui.Symbols[name] = sym
	return sym
}

func (c *checker) checkStmts(list []ast.Stmt) {
	for _, s := range list {
		c.checkStmt(s)
	}
}

func (c *checker) checkStmt(s ast.Stmt) {
	switch s := s.(type) {
	case *ast.AssignStmt:
		lt := c.checkVarRef(s.LHS, true)
		rt := c.checkExpr(s.RHS)
		if lt == ast.TypeNone || rt == ast.TypeNone {
			return
		}
		// Implicit conversion in either direction is allowed.
	case *ast.IfStmt:
		c.checkCond(s.Cond)
		c.checkStmts(s.Then)
		c.checkStmts(s.Else)
	case *ast.DoStmt:
		sym := c.lookupOrImplicit(s.Var)
		if sym.IsArray() {
			c.errorf(s.Pos, "DO variable %s must be scalar", s.Var)
		}
		if sym.Type != ast.TypeInt {
			c.errorf(s.Pos, "DO variable %s must be INTEGER", s.Var)
		}
		c.requireInt(s.From, "DO lower bound")
		c.requireInt(s.To, "DO upper bound")
		c.checkStmts(s.Body)
	case *ast.WhileStmt:
		c.checkCond(s.Cond)
		c.checkStmts(s.Body)
	case *ast.CallStmt:
		sig, ok := c.info.Sigs[s.Name]
		if !ok {
			c.errorf(s.Pos, "CALL of unknown subroutine %s", s.Name)
			for _, a := range s.Args {
				c.checkExpr(a)
			}
			return
		}
		if sig.Kind != ast.KindSubroutine {
			c.errorf(s.Pos, "%s is a FUNCTION; call it in an expression", s.Name)
		}
		c.checkArgs(s.Pos, sig, s.Args)
	case *ast.ReturnStmt, *ast.ExitStmt, *ast.CycleStmt, *ast.ContinueStmt:
		// Loop-nesting validity of EXIT/CYCLE is enforced by irgen,
		// which knows the loop context.
	}
}

func (c *checker) checkCond(e ast.Expr) {
	t := c.checkExpr(e)
	if t == ast.TypeReal {
		c.errorf(e.ExprPos(), "condition must be logical (a comparison), not REAL arithmetic")
	}
}

func (c *checker) requireInt(e ast.Expr, what string) {
	if t := c.checkExpr(e); t != ast.TypeInt && t != ast.TypeNone {
		c.errorf(e.ExprPos(), "%s must be INTEGER", what)
	}
}

// checkVarRef types a scalar or array-element reference. lhs marks
// assignment targets, where assigning to the function name is legal.
func (c *checker) checkVarRef(v *ast.VarRef, lhs bool) ast.Type {
	sym := c.lookupOrImplicit(v.Name)
	if sym.Kind == SymRet && !lhs {
		// Reading the return variable is permitted (it acts as a local).
		_ = sym
	}
	if len(v.Indexes) > 0 {
		if !sym.IsArray() {
			c.errorf(v.Pos, "%s is not an array", v.Name)
		} else if len(v.Indexes) != len(sym.Dims) {
			c.errorf(v.Pos, "%s has %d dimension(s), indexed with %d", v.Name, len(sym.Dims), len(v.Indexes))
		}
		for _, ix := range v.Indexes {
			c.requireInt(ix, "array index")
		}
	} else if sym.IsArray() {
		c.errorf(v.Pos, "array %s used without indexes", v.Name)
	}
	c.ui.ExprType[v] = sym.Type
	return sym.Type
}

func (c *checker) checkExpr(e ast.Expr) ast.Type {
	t := c.typeExpr(e)
	c.ui.ExprType[e] = t
	return t
}

func (c *checker) typeExpr(e ast.Expr) ast.Type {
	switch e := e.(type) {
	case *ast.IntLit:
		return ast.TypeInt
	case *ast.RealLit:
		return ast.TypeReal
	case *ast.VarRef:
		return c.checkVarRef(e, false)
	case *ast.UnExpr:
		xt := c.checkExpr(e.X)
		if e.Op == ast.OpNot && xt == ast.TypeReal {
			c.errorf(e.Pos, ".NOT. applied to REAL value")
		}
		return xt
	case *ast.BinExpr:
		lt := c.checkExpr(e.L)
		rt := c.checkExpr(e.R)
		switch {
		case e.Op.IsRelational():
			return ast.TypeInt // conditions are integer 0/1
		case e.Op.IsLogical():
			if lt == ast.TypeReal || rt == ast.TypeReal {
				c.errorf(e.Pos, "%s applied to REAL value", e.Op)
			}
			return ast.TypeInt
		case e.Op == ast.OpPow:
			if lt == ast.TypeInt && rt == ast.TypeInt {
				return ast.TypeInt
			}
			return ast.TypeReal
		default:
			if lt == ast.TypeReal || rt == ast.TypeReal {
				return ast.TypeReal
			}
			return ast.TypeInt
		}
	case *ast.CallExpr:
		return c.typeCall(e)
	}
	return ast.TypeNone
}

func (c *checker) typeCall(e *ast.CallExpr) ast.Type {
	// NAME(args) is an array reference if NAME is an array symbol.
	if sym, ok := c.ui.Symbols[e.Name]; ok && sym.IsArray() {
		c.ui.CallKind[e] = CallArray
		if len(e.Args) != len(sym.Dims) {
			c.errorf(e.Pos, "%s has %d dimension(s), indexed with %d", e.Name, len(sym.Dims), len(e.Args))
		}
		for _, ix := range e.Args {
			c.requireInt(ix, "array index")
		}
		return sym.Type
	}
	// Intrinsic?
	if in, ok := intrinsics[e.Name]; ok {
		c.ui.CallKind[e] = CallIntrinsic
		c.ui.Intrinsic[e] = in
		return c.typeIntrinsic(e, in)
	}
	// User function?
	if sig, ok := c.info.Sigs[e.Name]; ok {
		if sig.Kind != ast.KindFunction {
			c.errorf(e.Pos, "%s is a SUBROUTINE; use CALL", e.Name)
			return ast.TypeNone
		}
		c.ui.CallKind[e] = CallUser
		c.checkArgs(e.Pos, sig, e.Args)
		return sig.Ret
	}
	c.errorf(e.Pos, "unknown function or array %s", e.Name)
	for _, a := range e.Args {
		c.checkExpr(a)
	}
	return ImplicitType(e.Name)
}

func (c *checker) typeIntrinsic(e *ast.CallExpr, in Intrinsic) ast.Type {
	var ts []ast.Type
	for _, a := range e.Args {
		ts = append(ts, c.checkExpr(a))
	}
	need := func(n int) bool {
		if len(e.Args) != n {
			c.errorf(e.Pos, "%s expects %d argument(s), got %d", e.Name, n, len(e.Args))
			return false
		}
		return true
	}
	promote := func() ast.Type {
		for _, t := range ts {
			if t == ast.TypeReal {
				return ast.TypeReal
			}
		}
		return ast.TypeInt
	}
	switch in {
	case IntrAbs:
		if need(1) {
			return ts[0]
		}
	case IntrSqrt, IntrExp, IntrLog, IntrSin, IntrCos:
		need(1)
		return ast.TypeReal
	case IntrMod:
		if need(2) {
			return promote()
		}
	case IntrMin, IntrMax:
		if len(e.Args) < 2 {
			c.errorf(e.Pos, "%s expects at least 2 arguments", e.Name)
		}
		return promote()
	case IntrInt:
		need(1)
		return ast.TypeInt
	case IntrFloat:
		need(1)
		return ast.TypeReal
	case IntrSign:
		if need(2) {
			return promote()
		}
	}
	return ast.TypeNone
}

// checkArgs validates a call's arguments against the unit signature.
// Scalar parameters are passed by value; array parameters receive
// the address of an array or of an array element.
func (c *checker) checkArgs(pos source.Pos, sig *Sig, args []ast.Expr) {
	if len(args) != len(sig.Params) {
		c.errorf(pos, "%s expects %d argument(s), got %d", sig.Name, len(sig.Params), len(args))
	}
	n := len(args)
	if len(sig.Params) < n {
		n = len(sig.Params)
	}
	for i := 0; i < n; i++ {
		arg := args[i]
		ps := sig.Params[i]
		if ps.IsArray {
			name, elemOK := arrayArgName(arg)
			if !elemOK {
				c.errorf(arg.ExprPos(), "argument %d of %s must be an array or array element", i+1, sig.Name)
				c.checkExpr(arg)
				continue
			}
			sym := c.lookupOrImplicit(name)
			if !sym.IsArray() {
				c.errorf(arg.ExprPos(), "argument %d of %s: %s is not an array", i+1, sig.Name, name)
				continue
			}
			if sym.Type != ps.Type {
				c.errorf(arg.ExprPos(), "argument %d of %s: array element type mismatch (%s vs %s)", i+1, sig.Name, sym.Type, ps.Type)
			}
			// Type the index expressions, if an element reference.
			switch a := arg.(type) {
			case *ast.CallExpr:
				c.ui.CallKind[a] = CallArray
				for _, ix := range a.Args {
					c.requireInt(ix, "array index")
				}
				c.ui.ExprType[a] = sym.Type
			case *ast.VarRef:
				c.ui.ExprType[a] = sym.Type
			}
			continue
		}
		at := c.checkExpr(arg)
		if at != ps.Type && at != ast.TypeNone {
			// Allowed with implicit conversion, like assignment.
			_ = at
		}
	}
}

// arrayArgName extracts the array name from an argument passed to an
// array parameter: either a bare name or NAME(indexes).
func arrayArgName(e ast.Expr) (string, bool) {
	switch e := e.(type) {
	case *ast.VarRef:
		if len(e.Indexes) == 0 {
			return e.Name, true
		}
		return e.Name, true
	case *ast.CallExpr:
		return e.Name, true
	}
	return "", false
}
