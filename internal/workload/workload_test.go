package workload

import (
	"encoding/json"
	"testing"

	"cdna/internal/sim"
	"cdna/internal/transport"
)

// loop wires a connection to itself through a fixed-delay function-call
// "network", the minimal harness for driving a Generator without a
// machine model.
func loop(eng *sim.Engine, window int) *transport.Conn {
	c := transport.NewConn(eng, 0, transport.DefaultSegSize, window)
	c.AttachSender(func(s *transport.Segment) {
		eng.After(10*sim.Microsecond, func() { transport.Dispatch(s) })
	})
	c.AttachReceiver(func(s *transport.Segment) {
		eng.After(10*sim.Microsecond, func() { transport.Dispatch(s) })
	})
	return c
}

func TestKindRoundTrip(t *testing.T) {
	for _, k := range []Kind{Bulk, RequestResponse, Churn, Burst} {
		b, err := k.MarshalText()
		if err != nil {
			t.Fatal(err)
		}
		var back Kind
		if err := back.UnmarshalText(b); err != nil {
			t.Fatal(err)
		}
		if back != k {
			t.Fatalf("%v round-tripped to %v", k, back)
		}
		parsed, err := Kinds.Parse(k.String())
		if err != nil || parsed != k {
			t.Fatalf("Kinds.Parse(%q) = %v, %v", k.String(), parsed, err)
		}
	}
	if _, err := Kinds.Parse("wat"); err == nil {
		t.Fatal("unknown kind accepted")
	}
}

func TestSpecJSONRoundTrip(t *testing.T) {
	in := Spec{Kind: RequestResponse, RequestSegs: 7, Think: 3 * sim.Millisecond, Seed: 42}
	b, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	var out Spec
	if err := json.Unmarshal(b, &out); err != nil {
		t.Fatal(err)
	}
	if out != in {
		t.Fatalf("round-trip %+v != %+v", out, in)
	}
	// Legacy configs carry no workload at all: absent JSON is bulk.
	var zero Spec
	if err := json.Unmarshal([]byte(`{}`), &zero); err != nil {
		t.Fatal(err)
	}
	if zero.Kind != Bulk {
		t.Fatalf("empty spec decoded to %v, want bulk", zero.Kind)
	}
}

func TestResolvedDefaults(t *testing.T) {
	tx := Spec{Kind: RequestResponse}.Resolved(true, false)
	if tx.RequestSegs != DefaultHeavySegs || tx.ResponseSegs != DefaultLightSegs {
		t.Fatalf("tx-heavy RPC resolved to req=%d resp=%d", tx.RequestSegs, tx.ResponseSegs)
	}
	rx := Spec{Kind: RequestResponse}.Resolved(false, true)
	if rx.RequestSegs != DefaultLightSegs || rx.ResponseSegs != DefaultHeavySegs {
		t.Fatalf("rx-heavy RPC resolved to req=%d resp=%d", rx.RequestSegs, rx.ResponseSegs)
	}
	if got := (Spec{Kind: Churn}).Resolved(true, false); got.FlowSegs != DefaultFlowSegs {
		t.Fatalf("churn FlowSegs default = %d", got.FlowSegs)
	}
	b := Spec{Kind: Burst}.Resolved(true, false)
	if b.BurstOn != DefaultBurstOn || b.BurstOff != DefaultBurstOff {
		t.Fatalf("burst defaults = %v/%v", b.BurstOn, b.BurstOff)
	}
	// Explicit knobs survive resolution.
	keep := Spec{Kind: RequestResponse, RequestSegs: 9}.Resolved(true, false)
	if keep.RequestSegs != 9 {
		t.Fatalf("explicit RequestSegs overwritten: %d", keep.RequestSegs)
	}
}

func TestValidate(t *testing.T) {
	if err := (Spec{}).Validate(); err != nil {
		t.Fatalf("zero spec invalid: %v", err)
	}
	if err := (Spec{Kind: Kind(99)}).Validate(); err == nil {
		t.Fatal("unknown kind accepted")
	}
	if err := (Spec{Kind: Churn, FlowSegs: -1}).Validate(); err == nil {
		t.Fatal("negative flow size accepted")
	}
	if err := (Spec{Kind: Burst, BurstOn: -sim.Millisecond}).Validate(); err == nil {
		t.Fatal("negative duration accepted")
	}
}

func TestSuffix(t *testing.T) {
	if s := (Spec{}).Suffix(); s != "" {
		t.Fatalf("bulk suffix = %q, want empty (legacy names unchanged)", s)
	}
	specs := []Spec{
		{Kind: RequestResponse},
		{Kind: RequestResponse, RequestSegs: 4},
		{Kind: RequestResponse, RequestSegs: 4, Think: sim.Millisecond},
		{Kind: Churn},
		{Kind: Churn, FlowSegs: 16},
		{Kind: Burst},
		{Kind: Burst, BurstOn: sim.Millisecond},
	}
	seen := map[string]Spec{}
	for _, s := range specs {
		suf := s.Suffix()
		if suf == "" {
			t.Fatalf("non-bulk spec %+v has empty suffix", s)
		}
		if prev, dup := seen[suf]; dup {
			t.Fatalf("specs %+v and %+v share suffix %q", prev, s, suf)
		}
		seen[suf] = s
	}
}

func TestRequestResponseClosedLoop(t *testing.T) {
	eng := sim.New()
	spec := Spec{Kind: RequestResponse}.Resolved(true, false)
	g, err := NewGenerator(eng, spec)
	if err != nil {
		t.Fatal(err)
	}
	if !g.NeedsReverse() {
		t.Fatal("RPC workload must request a reverse channel")
	}
	if err := g.Add(Endpoint{Fwd: loop(eng, 32), Rev: loop(eng, 32)}); err != nil {
		t.Fatal(err)
	}
	g.Launch(30 * sim.Millisecond)
	eng.Run(100 * sim.Millisecond)
	n := g.Requests.Total()
	if n == 0 {
		t.Fatal("no RPCs completed")
	}
	// Closed loop with ~1ms think: roughly one RPC per think time, and
	// certainly no more than the loop structure allows.
	if max := uint64(100); n > max {
		t.Fatalf("%d RPCs in 100ms with 1ms think: loop is not closed", n)
	}
	if g.Latency.Count() == 0 || g.Latency.Quantiles(0.5)[0] <= 0 {
		t.Fatalf("no RPC latency samples (count=%d)", g.Latency.Count())
	}
}

func TestChurnOpensAndClosesFlows(t *testing.T) {
	eng := sim.New()
	spec := Spec{Kind: Churn}.Resolved(true, false)
	g, err := NewGenerator(eng, spec)
	if err != nil {
		t.Fatal(err)
	}
	setups, teardowns := 0, 0
	ep := Endpoint{
		Fwd:         loop(eng, 32),
		OnFlowSetup: func() { setups++ }, OnFlowTeardown: func() { teardowns++ },
	}
	if err := g.Add(ep); err != nil {
		t.Fatal(err)
	}
	g.Launch(30 * sim.Millisecond)
	eng.Run(100 * sim.Millisecond)
	if g.Flows.Total() == 0 {
		t.Fatal("no flows completed")
	}
	if setups == 0 || teardowns == 0 {
		t.Fatalf("flow lifecycle hooks not charged: %d setups, %d teardowns", setups, teardowns)
	}
	if diff := setups - teardowns; diff < 0 || diff > 1 {
		t.Fatalf("setup/teardown imbalance: %d vs %d", setups, teardowns)
	}
	if uint64(teardowns) != g.Flows.Total() {
		t.Fatalf("teardowns %d != flows %d", teardowns, g.Flows.Total())
	}
}

func TestBurstAlternates(t *testing.T) {
	eng := sim.New()
	spec := Spec{Kind: Burst}.Resolved(true, false)
	g, err := NewGenerator(eng, spec)
	if err != nil {
		t.Fatal(err)
	}
	c := loop(eng, 32)
	if err := g.Add(Endpoint{Fwd: c}); err != nil {
		t.Fatal(err)
	}
	g.Launch(30 * sim.Millisecond)

	// Sample delivery in slices: with a 20% duty cycle some slices must
	// be silent and some busy.
	silent, busy := 0, 0
	last := uint64(0)
	for at := 10 * sim.Millisecond; at <= 100*sim.Millisecond; at += 2 * sim.Millisecond {
		eng.Run(at)
		d := c.Delivered.Total()
		if d == last {
			silent++
		} else {
			busy++
		}
		last = d
	}
	if busy == 0 {
		t.Fatal("burst workload never transmitted")
	}
	if silent == 0 {
		t.Fatal("burst workload never went silent (off-periods missing)")
	}
}

func TestGeneratorDeterminism(t *testing.T) {
	run := func() (uint64, float64) {
		eng := sim.New()
		g, err := NewGenerator(eng, Spec{Kind: Churn}.Resolved(true, false))
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3; i++ {
			if err := g.Add(Endpoint{Fwd: loop(eng, 32)}); err != nil {
				t.Fatal(err)
			}
		}
		g.Launch(30 * sim.Millisecond)
		eng.Run(80 * sim.Millisecond)
		return g.Flows.Total(), g.Latency.Quantiles(0.9)[0]
	}
	f1, q1 := run()
	f2, q2 := run()
	if f1 != f2 || q1 != q2 {
		t.Fatalf("reruns differ: (%d, %v) vs (%d, %v)", f1, q1, f2, q2)
	}
}

func TestAddRejectsMiswiredEndpoints(t *testing.T) {
	eng := sim.New()
	g, _ := NewGenerator(eng, Spec{Kind: RequestResponse}.Resolved(true, false))
	if err := g.Add(Endpoint{}); err == nil {
		t.Fatal("endpoint without a forward conn accepted")
	}
	if err := g.Add(Endpoint{Fwd: loop(eng, 8)}); err == nil {
		t.Fatal("RPC endpoint without a reverse conn accepted")
	}
	if _, err := NewGenerator(eng, Spec{Kind: Kind(42)}); err == nil {
		t.Fatal("generator accepted an invalid spec")
	}
}
