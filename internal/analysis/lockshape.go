package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// LockShape enforces the concurrency-shape contract in the packages that mix
// locks, atomics, and pools on the serving path: internal/telemetry,
// internal/faults, internal/serve, internal/quality, and cmd/generic-serve.
// Three shapes are flagged:
//
//   - mixed discipline: a struct field updated via sync/atomic (passed as
//     &x.f to an atomic function) that is also read or written directly —
//     the direct access races with the atomic one whether or not a mutex
//     guards it, because the atomic side does not take the mutex.
//   - read-lock upgrade: code holding mu.RLock() that calls mu.Lock() or a
//     package-local function that takes mu.Lock() on the same mutex field —
//     sync.RWMutex is not upgradable; this deadlocks under contention.
//   - pool reuse-after-Put: statements after sync.Pool.Put(x) in the same
//     block that still read x — the pointee may already be handed to
//     another goroutine.
//
// By-value copies of lock-holding types are go vet's copylocks check, which
// CI runs over the whole module.
var LockShape = &Analyzer{
	Name: "lockshape",
	Doc:  "flag atomic/direct mixed field access, RLock upgrade deadlocks, and sync.Pool use-after-Put",
	Run:  runLockShape,
}

func runLockShape(pass *Pass) {
	if !lockShapeScope(pass) {
		return
	}
	checkMixedAtomic(pass)
	checkRLockUpgrades(pass)
	checkPoolPutReuse(pass)
}

// lockShapeScope limits the analyzer to the packages whose concurrency
// shapes it models.
func lockShapeScope(pass *Pass) bool {
	for _, s := range [...]string{"internal/telemetry", "internal/faults", "internal/serve", "internal/quality", "cmd/generic-serve"} {
		if pathHasSuffix(pass.Path, s) {
			return true
		}
	}
	return false
}

// checkMixedAtomic flags fields accessed both via sync/atomic and directly.
func checkMixedAtomic(pass *Pass) {
	atomicUse := map[types.Object]bool{}      // fields passed as &x.f to sync/atomic
	atomicSel := map[*ast.SelectorExpr]bool{} // the selector nodes inside those calls
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := calleeFunc(pass, call)
			if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "sync/atomic" {
				return true
			}
			for _, arg := range call.Args {
				u, ok := arg.(*ast.UnaryExpr)
				if !ok || u.Op != token.AND {
					continue
				}
				sel, ok := u.X.(*ast.SelectorExpr)
				if !ok {
					continue
				}
				if obj := fieldObject(pass, sel); obj != nil {
					atomicUse[obj] = true
					atomicSel[sel] = true
				}
			}
			return true
		})
	}
	if len(atomicUse) == 0 {
		return
	}
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok || atomicSel[sel] {
				return true
			}
			obj := fieldObject(pass, sel)
			if obj == nil || !atomicUse[obj] {
				return true
			}
			pass.Reportf(sel.Pos(), "field %s is updated via sync/atomic elsewhere but accessed directly here; mixed discipline races — use the atomic API for every access or drop the atomics", obj.Name())
			return true
		})
	}
}

// fieldObject resolves a selector to the struct field it names, or nil.
func fieldObject(pass *Pass, sel *ast.SelectorExpr) types.Object {
	s, ok := pass.Info.Selections[sel]
	if !ok || s.Kind() != types.FieldVal {
		return nil
	}
	return s.Obj()
}

// mutexEvent is one lock-relevant action in a function body, in source order.
type mutexEvent struct {
	pos      token.Pos
	kind     string       // "rlock", "runlock", "lock", "call"
	mutex    types.Object // for lock events: the mutex field/var
	deferred bool
	callee   *types.Func // for call events
}

// checkRLockUpgrades flags write-lock acquisition (direct or via a
// package-local callee) while a read lock on the same mutex is held.
func checkRLockUpgrades(pass *Pass) {
	// Pass 1: which package-local functions take a write lock on which mutex?
	writeLocks := map[*types.Func]map[types.Object]bool{}
	forEachFunc(pass, func(fd *ast.FuncDecl) {
		fn, _ := pass.Info.Defs[fd.Name].(*types.Func)
		if fn == nil {
			return
		}
		for _, ev := range mutexEvents(pass, fd) {
			if ev.kind == "lock" && ev.mutex != nil {
				if writeLocks[fn] == nil {
					writeLocks[fn] = map[types.Object]bool{}
				}
				writeLocks[fn][ev.mutex] = true
			}
		}
	})
	// Pass 2: scan each function's read-lock regions.
	forEachFunc(pass, func(fd *ast.FuncDecl) {
		held := map[types.Object]bool{} // read locks currently held
		for _, ev := range mutexEvents(pass, fd) {
			switch ev.kind {
			case "rlock":
				if ev.mutex != nil {
					held[ev.mutex] = true
				}
			case "runlock":
				// A deferred RUnlock holds the read lock to function end.
				if ev.mutex != nil && !ev.deferred {
					delete(held, ev.mutex)
				}
			case "lock":
				if ev.mutex != nil && held[ev.mutex] {
					pass.Reportf(ev.pos, "%s takes the write lock while holding the read lock on the same mutex; sync.RWMutex cannot upgrade — this deadlocks under contention", fd.Name.Name)
				}
			case "call":
				for m := range writeLocks[ev.callee] {
					if held[m] {
						pass.Reportf(ev.pos, "%s calls %s while holding the read lock; the callee takes the write lock on the same mutex — sync.RWMutex cannot upgrade, this deadlocks", fd.Name.Name, ev.callee.Name())
					}
				}
			}
		}
	})
}

// mutexEvents extracts lock operations and package-local calls from a
// function body in source order. Control flow is approximated linearly —
// good enough for the straight-line lock regions this repository writes.
func mutexEvents(pass *Pass, fd *ast.FuncDecl) []mutexEvent {
	var evs []mutexEvent
	if fd.Body == nil {
		return nil
	}
	addCall := func(call *ast.CallExpr, deferred bool) {
		fn := calleeFunc(pass, call)
		if fn == nil || fn.Pkg() == nil {
			return
		}
		if fn.Pkg().Path() == "sync" {
			var kind string
			switch fn.Name() {
			case "RLock":
				kind = "rlock"
			case "RUnlock":
				kind = "runlock"
			case "Lock":
				kind = "lock"
			default:
				return
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return
			}
			evs = append(evs, mutexEvent{pos: call.Pos(), kind: kind, mutex: mutexObject(pass, sel.X), deferred: deferred})
			return
		}
		if fn.Pkg() == pass.Pkg {
			evs = append(evs, mutexEvent{pos: call.Pos(), kind: "call", callee: fn})
		}
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.DeferStmt:
			addCall(n.Call, true)
			return false
		case *ast.CallExpr:
			addCall(n, false)
		case *ast.FuncLit:
			return false // closures run on their own schedule
		}
		return true
	})
	sort.Slice(evs, func(i, j int) bool { return evs[i].pos < evs[j].pos })
	return evs
}

// mutexObject identifies the mutex a Lock/RLock receiver names: a struct
// field (s.mu) or a plain variable.
func mutexObject(pass *Pass, x ast.Expr) types.Object {
	switch x := x.(type) {
	case *ast.SelectorExpr:
		if obj := fieldObject(pass, x); obj != nil {
			return obj
		}
		return pass.Info.ObjectOf(x.Sel)
	case *ast.Ident:
		return pass.Info.ObjectOf(x)
	}
	return nil
}

// checkPoolPutReuse flags reads of a variable after it was returned to a
// sync.Pool in the same block: the pointee may already belong to another
// goroutine. A reassignment of the variable ends the taint.
func checkPoolPutReuse(pass *Pass) {
	forEachFunc(pass, func(fd *ast.FuncDecl) {
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			block, ok := n.(*ast.BlockStmt)
			if !ok {
				return true
			}
			for i, stmt := range block.List {
				obj := poolPutArg(pass, stmt)
				if obj == nil {
					continue
				}
				scanUsesAfterPut(pass, block.List[i+1:], obj)
			}
			return true
		})
	})
}

// poolPutArg matches `pool.Put(x)` statements and returns x's object.
func poolPutArg(pass *Pass, stmt ast.Stmt) types.Object {
	es, ok := stmt.(*ast.ExprStmt)
	if !ok {
		return nil
	}
	call, ok := es.X.(*ast.CallExpr)
	if !ok || len(call.Args) != 1 {
		return nil
	}
	fn := calleeFunc(pass, call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "sync" || fn.Name() != "Put" {
		return nil
	}
	id, ok := call.Args[0].(*ast.Ident)
	if !ok {
		return nil
	}
	return pass.Info.ObjectOf(id)
}

// scanUsesAfterPut reports uses of obj in the statements after its Put,
// stopping at a reassignment (which kills the pooled value).
func scanUsesAfterPut(pass *Pass, stmts []ast.Stmt, obj types.Object) {
	for _, stmt := range stmts {
		if as, ok := stmt.(*ast.AssignStmt); ok {
			reassigned := false
			for _, lhs := range as.Lhs {
				if id, ok := lhs.(*ast.Ident); ok && pass.Info.ObjectOf(id) == obj {
					reassigned = true
				}
			}
			for _, rhs := range as.Rhs {
				reportUses(pass, rhs, obj)
			}
			if reassigned {
				return
			}
			continue
		}
		reportUses(pass, stmt, obj)
	}
}

func reportUses(pass *Pass, n ast.Node, obj types.Object) {
	ast.Inspect(n, func(m ast.Node) bool {
		id, ok := m.(*ast.Ident)
		if ok && pass.Info.Uses[id] == obj {
			pass.Reportf(id.Pos(), "%s was returned to its sync.Pool above but is still used here; another goroutine may already own the pointee — finish all reads before Put", id.Name)
		}
		return true
	})
}

// forEachFunc applies f to every function declaration with a body.
func forEachFunc(pass *Pass, f func(*ast.FuncDecl)) {
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				f(fd)
			}
		}
	}
}
