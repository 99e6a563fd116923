package workload

import (
	"bufio"
	"errors"
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"

	"cdna/internal/sim"
	"cdna/internal/transport"
)

// TraceEvent is one recorded flow arrival: at time At (relative to the
// workload launch), Src's host offers a Segs-segment flow toward Dst's
// host.
type TraceEvent struct {
	At       sim.Time
	Src, Dst int
	Segs     int
}

// FlowTrace is a parsed flow trace, sorted by arrival time (stable, so
// same-instant rows keep file order).
type FlowTrace struct {
	Events []TraceEvent
}

// MemPrefix marks a TracePath that names a registered in-memory trace
// instead of a file — tests and programmatic campaigns use it to avoid
// touching the filesystem.
const MemPrefix = "mem:"

// traceReg holds the MemPrefix registrations, the one package-level
// mutable state that DESIGN.md's determinism rule 2 allows.
var (
	traceMu  sync.Mutex
	traceReg = map[string]*FlowTrace{}
)

// RegisterTrace stores an in-memory trace under MemPrefix+name.
// Registration replaces any previous trace of the same name.
func RegisterTrace(name string, tr *FlowTrace) {
	traceMu.Lock()
	defer traceMu.Unlock()
	traceReg[name] = tr
}

// LoadTrace resolves a TracePath: a MemPrefix name looks up the
// registry, anything else parses a CSV file of
//
//	arrival,src,dst,bytes
//
// with arrival in seconds (fractions allowed), src/dst as host indices,
// and bytes as the flow's payload size (converted to segments at the
// default MSS). Blank lines and #-comments are skipped, as is an
// optional non-numeric header row. An arrival must be finite and fit
// sim.Time in nanoseconds, and a flow must fit math.MaxInt32 segments.
// A file is parsed on every call, so a trace rewritten in place is
// read afresh.
func LoadTrace(path string) (*FlowTrace, error) {
	if name, ok := strings.CutPrefix(path, MemPrefix); ok {
		traceMu.Lock()
		defer traceMu.Unlock()
		tr := traceReg[name]
		if tr == nil {
			return nil, fmt.Errorf("workload: no registered trace %q", name)
		}
		return tr, nil
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("workload: open trace: %w", err)
	}
	defer f.Close()
	tr, err := ParseTrace(f)
	if err != nil {
		return nil, fmt.Errorf("workload: trace %s: %w", path, err)
	}
	return tr, nil
}

// ParseTrace parses trace CSV from a reader (see LoadTrace for the
// format) and sorts the events by arrival time.
func ParseTrace(r interface{ Read([]byte) (int, error) }) (*FlowTrace, error) {
	tr := &FlowTrace{}
	sc := bufio.NewScanner(r)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		cols := strings.Split(text, ",")
		if len(cols) != 4 {
			return nil, fmt.Errorf("line %d: want 4 columns (arrival,src,dst,bytes), got %d", line, len(cols))
		}
		sec, err := strconv.ParseFloat(strings.TrimSpace(cols[0]), 64)
		if err != nil {
			if line == 1 && errors.Is(err, strconv.ErrSyntax) { // header row
				continue
			}
			return nil, fmt.Errorf("line %d: bad arrival %q", line, cols[0])
		}
		src, err1 := strconv.Atoi(strings.TrimSpace(cols[1]))
		dst, err2 := strconv.Atoi(strings.TrimSpace(cols[2]))
		bytes, err3 := strconv.ParseInt(strings.TrimSpace(cols[3]), 10, 64)
		if err1 != nil || err2 != nil || err3 != nil {
			return nil, fmt.Errorf("line %d: bad src/dst/bytes in %q", line, text)
		}
		if sec < 0 || src < 0 || dst < 0 || bytes <= 0 {
			return nil, fmt.Errorf("line %d: negative field (or empty flow) in %q", line, text)
		}
		// float64(math.MaxInt64) is 2^63, the first value past sim.Time.
		ns := sec * float64(sim.Second)
		if math.IsNaN(ns) || ns >= float64(math.MaxInt64) {
			return nil, fmt.Errorf("line %d: arrival %q is not a finite time within %v", line, cols[0], sim.Time(math.MaxInt64))
		}
		segs := (bytes-1)/transport.DefaultSegSize + 1 // ceil, without overflow
		if segs > math.MaxInt32 {
			return nil, fmt.Errorf("line %d: flow of %d bytes exceeds %d segments", line, bytes, math.MaxInt32)
		}
		tr.Events = append(tr.Events, TraceEvent{
			At:   sim.Time(ns),
			Src:  src,
			Dst:  dst,
			Segs: int(segs),
		})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(tr.Events) == 0 {
		return nil, fmt.Errorf("trace has no events")
	}
	sort.SliceStable(tr.Events, func(i, j int) bool { return tr.Events[i].At < tr.Events[j].At })
	return tr, nil
}

// assignTrace distributes trace events over an endpoint roster: each
// event goes to the next endpoint whose (Local.Host, Remote.Host)
// matches its (src, dst), round-robin within the pair so multiple
// slots share the pair's load. Events with no matching endpoint are
// skipped and counted. The roster is in registration order, so the
// assignment is deterministic.
func assignTrace(tr *FlowTrace, eps []*endpoint) (skipped int) {
	type pair struct{ src, dst int }
	byPair := map[pair][]*endpoint{}
	for _, e := range eps {
		p := pair{e.Local.Host, e.Remote.Host}
		byPair[p] = append(byPair[p], e)
	}
	next := map[pair]int{}
	for _, ev := range tr.Events {
		p := pair{ev.Src, ev.Dst}
		slots := byPair[p]
		if len(slots) == 0 {
			skipped++
			continue
		}
		e := slots[next[p]%len(slots)]
		next[p]++
		e.trace = append(e.trace, ev)
	}
	return skipped
}
