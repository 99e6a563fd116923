package sim

// Fn is a schedulable callback with a name. Model layers bind their
// callbacks once at construction time with Engine.Bind, so scheduling
// one allocates no closure and passes no name: the name lives in the
// engine's label table, and the Fn (and every event scheduled with it)
// carries only its index. A name takes the next index the first time
// it is bound and keeps it, so callbacks bound under one name share it;
// machine construction is deterministic, so the same config binds the
// same callbacks in the same order, and the bind count is a structural
// fingerprint of the machine (see Binds).
//
// The zero Fn is valid and means "no callback, no label": calling it is
// a no-op.
type Fn struct {
	f  func()
	id int32 // label index: 0 for the zero Fn and raw Fns, >0 when named
}

// RawFn wraps an unregistered func. Raw callbacks work normally but
// carry no label, so the flight recorder shows their events unnamed;
// model layers use Engine.Bind.
func RawFn(f func()) Fn { return Fn{f: f} }

// Bind registers f under name in the engine's label table and returns
// its Fn. f may be nil: the Fn then names work that has no completion
// callback (a CPU task charged for its cost alone), and does not count
// as a bound callback. Bind must only be called during machine
// construction (before the simulation runs), and construction must be
// deterministic — both are what make labels and the bind count stable
// across machines built from the same configuration.
func (e *Engine) Bind(name string, f func()) Fn {
	if f != nil {
		e.binds++
	}
	return Fn{f: f, id: e.newLabel(name)}
}

// LabeledAs returns fn's callback under label's name: a layer that runs
// every caller's work through one completion callback (the CPU's task
// completion) schedules it so the event is named by the work it
// completes.
func (fn Fn) LabeledAs(label Fn) Fn { return Fn{f: fn.f, id: label.id} }

// Binds returns the number of bound callbacks — a cheap structural
// fingerprint that tells machines built differently apart.
func (e *Engine) Binds() int { return e.binds }

// Call invokes the callback; calling a Fn without one is a no-op.
func (fn Fn) Call() {
	if fn.f != nil {
		fn.f()
	}
}

// newLabel returns name's index in the label table, adding the name
// the first time it is used, so every Fn and Timer bound under one name
// shares one index. Index 0 is the unnamed label of the zero Fn and raw
// callbacks.
func (e *Engine) newLabel(name string) int32 {
	if name == "" {
		panic("sim: empty event label")
	}
	if id, ok := e.labelID[name]; ok {
		return id
	}
	if e.labelID == nil {
		e.labelID = make(map[string]int32)
	}
	e.labels = append(e.labels, name)
	id := int32(len(e.labels))
	e.labelID[name] = id
	return id
}

// label returns the name behind a label index ("" for index 0).
func (e *Engine) label(id int32) string {
	if id == 0 {
		return ""
	}
	return e.labels[id-1]
}
