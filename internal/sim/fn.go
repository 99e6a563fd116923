package sim

// Fn is a schedulable callback with a registry identity. Model layers
// bind their callbacks once at construction time with Engine.Bind, so
// scheduling one allocates no closure. The identity is a small integer
// assigned in bind order; machine construction is deterministic, so
// the same config binds the same callbacks in the same order, and the
// bind count is a structural fingerprint of the machine (see Binds).
//
// The zero Fn is valid and means "no callback": calling it is a no-op
// and its ID is 0.
type Fn struct {
	f  func()
	id int32
}

// Fn identity classes (the ID space):
//
//	 0  — the zero Fn: no callback.
//	-1  — raw: an unregistered func (tests, attack paths, one-off
//	      tooling).
//	>0  — bound: the bind order, counting from 1.
const rawFnID = -1

// RawFn wraps an unregistered func. Raw callbacks work normally but
// carry no bind identity; model layers use Engine.Bind.
func RawFn(f func()) Fn {
	if f == nil {
		return Fn{}
	}
	return Fn{f: f, id: rawFnID}
}

// Bind registers f in the engine's callback registry and returns its
// Fn. Bind must only be called during machine construction (before the
// simulation runs), and construction must be deterministic — both are
// what make bind IDs stable across machines built from the same
// configuration.
func (e *Engine) Bind(f func()) Fn {
	if f == nil {
		panic("sim: Bind(nil)")
	}
	e.binds++
	return Fn{f: f, id: e.binds}
}

// Binds returns the number of bound callbacks — a cheap structural
// fingerprint that tells machines built differently apart.
func (e *Engine) Binds() int { return int(e.binds) }

// Call invokes the callback; calling the zero Fn is a no-op.
func (fn Fn) Call() {
	if fn.f != nil {
		fn.f()
	}
}

// Nil reports whether the Fn holds no callback.
func (fn Fn) Nil() bool { return fn.f == nil }

// ID returns the registry identity (see the ID-space comment above).
func (fn Fn) ID() int32 { return fn.id }
