// Package workload is the traffic-generation layer: it decides *what*
// the guests send over the simulated network, decoupled from *how* the
// transport and the machine under test move it. The benchmark machine
// builder wires transport connections into workload Endpoints; a
// Generator then drives those endpoints according to a Spec — the
// paper's always-saturating bulk streams, closed-loop request/response
// clients, short-lived flow churn, or on/off bursts — across every
// machine mode (native, Xen, CDNA) identically.
//
// The default (zero-value) Spec is Bulk and reproduces the paper's
// benchmark byte-for-byte: one infinite go-back-N stream per
// connection, started with the exact stagger schedule the evaluation
// has always used.
package workload

import (
	"fmt"
	"path"
	"strconv"
	"strings"

	"cdna/internal/enum"
	"cdna/internal/sim"
)

// Kind selects the traffic shape. The zero value is Bulk, so legacy
// configurations (and old result records) decode to the paper's
// workload unchanged.
type Kind int

// Workload kinds.
const (
	// Bulk is the paper's benchmark: every connection pumps an
	// infinite stream as fast as the window allows.
	Bulk Kind = iota
	// RequestResponse is a closed-loop RPC client per connection pair:
	// send a request, wait for the full response, think, repeat.
	RequestResponse
	// Churn is many short-lived flows per connection slot: open, push
	// a few segments, close (slow-start restarting every time), repeat
	// — the "millions of users" shape.
	Churn
	// Burst alternates saturating on-periods with silent off-periods,
	// jittered per endpoint so bursts desynchronize.
	Burst
	// Poisson is open-loop flow arrivals: a modeled client population
	// behind each endpoint offers flows at a fixed mean rate with
	// exponential inter-arrival gaps, regardless of how fast the fabric
	// completes them. Arrivals queue behind the endpoint's connection;
	// latency measures arrival→completion, queueing included — the
	// open-loop response time that collapses under overload.
	Poisson
	// Pareto is Poisson's heavy-tailed sibling: the same open-loop
	// machinery with Pareto-distributed inter-arrival gaps (tail index
	// ParetoAlpha), so arrivals come in bursts with long silences.
	Pareto
	// Trace replays a recorded flow trace (CSV of arrival,src,dst,bytes)
	// through the open-loop machinery: each row becomes a flow arrival
	// on an endpoint matching its (src,dst) host pair.
	Trace
)

// Kinds is the kind's token table, also its String form:
// bulk | rr | churn | burst | poisson | pareto | trace.
var Kinds = enum.New[Kind]("workload", "kind",
	"bulk|", "rr|rpc|request-response", "churn", "burst", "poisson", "pareto", "trace")

func (k Kind) String() string { return Kinds.String(k) }

// MarshalText encodes the kind as its token.
func (k Kind) MarshalText() ([]byte, error) { return Kinds.MarshalText(k) }

// UnmarshalText decodes a kind token.
func (k *Kind) UnmarshalText(b []byte) error { return Kinds.UnmarshalText(b, k) }

// SizeDist selects the flow-size distribution of the open-loop kinds.
// The zero value uses the fixed FlowSegs size, so configurations that
// predate size distributions decode unchanged.
type SizeDist int

// Flow-size distributions.
const (
	// SizeFixed uses FlowSegs for every flow.
	SizeFixed SizeDist = iota
	// SizePareto draws Pareto(ParetoAlpha, FlowSegs) segments — a
	// minimum-sized flow with a heavy tail.
	SizePareto
	// SizeWebSearch approximates the web-search flow-size CDF of the
	// DCTCP lineage: mostly mid-sized flows, a modest heavy tail.
	SizeWebSearch
	// SizeDataMining approximates the data-mining CDF: overwhelmingly
	// tiny flows and a tail of very large ones.
	SizeDataMining
)

// SizeDists is the distribution's token table, also its String form:
// fixed | pareto | websearch | datamining.
var SizeDists = enum.New[SizeDist]("workload", "size distribution", "fixed|", "pareto", "websearch", "datamining")

func (d SizeDist) String() string { return SizeDists.String(d) }

// MarshalText encodes the distribution as its token.
func (d SizeDist) MarshalText() ([]byte, error) { return SizeDists.MarshalText(d) }

// UnmarshalText decodes a size-distribution token.
func (d *SizeDist) UnmarshalText(b []byte) error { return SizeDists.UnmarshalText(b, d) }

// Spec describes one workload. All fields are scalars so a Spec (and
// therefore a bench.Config embedding one) stays comparable — campaign
// grid deduplication relies on that. Zero fields mean "use the kind's
// default", resolved by Resolved(); the zero Spec is the paper's bulk
// workload.
type Spec struct {
	Kind Kind `json:"kind"`

	// RequestResponse knobs.
	RequestSegs  int      `json:"request_segs,omitempty"`  // segments per request message
	ResponseSegs int      `json:"response_segs,omitempty"` // segments per response message
	Think        sim.Time `json:"think_ns,omitempty"`      // client think time between RPCs

	// Churn knobs.
	FlowSegs int      `json:"flow_segs,omitempty"`   // segments per short-lived flow
	FlowGap  sim.Time `json:"flow_gap_ns,omitempty"` // idle gap between a close and the next open

	// Burst knobs.
	BurstOn  sim.Time `json:"burst_on_ns,omitempty"`  // saturating period
	BurstOff sim.Time `json:"burst_off_ns,omitempty"` // silent period

	// Open-loop knobs (Poisson, Pareto, Trace). FlowSegs doubles as
	// the fixed flow size (SizeFixed) and the Pareto size minimum.
	FlowRate    float64  `json:"flow_rate,omitempty"`    // mean flow arrivals/s per modeled client
	Clients     int      `json:"clients,omitempty"`      // modeled clients per endpoint (rate multiplier)
	ParetoAlpha float64  `json:"pareto_alpha,omitempty"` // tail index for Pareto arrivals / sizes (>1)
	SizeDist    SizeDist `json:"size_dist,omitempty"`    // flow-size distribution
	TracePath   string   `json:"trace,omitempty"`        // Trace kind: CSV path (or mem: registry name)

	// Seed offsets the per-endpoint jitter RNG streams; 0 uses the
	// package default. Same seed ⇒ same traffic, always.
	Seed uint64 `json:"seed,omitempty"`
}

// Default workload parameters (used when the Spec leaves them zero).
const (
	// DefaultHeavySegs is the data-bearing message size (segments) for
	// the payload-heavy side of an RPC (~5.8 KB at the default MSS).
	DefaultHeavySegs = 4
	// DefaultLightSegs is the light side of an RPC (a header-sized
	// request or a short acknowledgment-style response).
	DefaultLightSegs = 1
	// DefaultFlowSegs is a churn flow's length (~11.6 KB: a small web
	// object).
	DefaultFlowSegs = 8
	// DefaultClients is the modeled client population per endpoint.
	DefaultClients = 1
)

// Default open-loop parameters.
const (
	// DefaultFlowRate is the mean open-loop arrival rate per modeled
	// client, flows per second — moderate load on a GbE access link at
	// the default flow size, leaving headroom to push into overload
	// with Clients or FlowRate.
	DefaultFlowRate = 400.0
	// DefaultParetoAlpha is the heavy-tail index for Pareto arrivals
	// and sizes: infinite variance (alpha < 2) with a finite mean
	// (alpha > 1), the classic self-similar-traffic regime.
	DefaultParetoAlpha = 1.5
)

// Default workload durations.
const (
	DefaultThink    = sim.Millisecond       // RPC client think time
	DefaultBurstOn  = 2 * sim.Millisecond   // burst duty: 2ms on ...
	DefaultBurstOff = 8 * sim.Millisecond   // ... 8ms off (20%)
	defaultSeed     = 0x5eed_cd9a_0000_0001 // per-endpoint jitter streams
)

// Resolved fills a Spec's zero fields with the kind's defaults. The
// direction of the experiment chooses which RPC message is
// payload-heavy: txHeavy makes the request large (upload RPC), rxHeavy
// the response (download RPC); both makes the exchange symmetric.
func (s Spec) Resolved(txHeavy, rxHeavy bool) Spec {
	r := s
	if r.Kind == RequestResponse {
		if r.RequestSegs == 0 {
			r.RequestSegs = DefaultLightSegs
			if txHeavy {
				r.RequestSegs = DefaultHeavySegs
			}
		}
		if r.ResponseSegs == 0 {
			r.ResponseSegs = DefaultLightSegs
			if rxHeavy {
				r.ResponseSegs = DefaultHeavySegs
			}
		}
		if r.Think == 0 {
			r.Think = DefaultThink
		}
	}
	if r.Kind == Churn && r.FlowSegs == 0 {
		r.FlowSegs = DefaultFlowSegs
	}
	if r.Kind == Poisson || r.Kind == Pareto || r.Kind == Trace {
		if r.FlowSegs == 0 {
			r.FlowSegs = DefaultFlowSegs
		}
		if r.FlowRate == 0 {
			r.FlowRate = DefaultFlowRate
		}
		if r.Clients == 0 {
			r.Clients = DefaultClients
		}
	}
	if (r.Kind == Pareto || r.SizeDist == SizePareto) && r.ParetoAlpha == 0 {
		r.ParetoAlpha = DefaultParetoAlpha
	}
	if r.Kind == Burst {
		if r.BurstOn == 0 {
			r.BurstOn = DefaultBurstOn
		}
		if r.BurstOff == 0 {
			r.BurstOff = DefaultBurstOff
		}
	}
	if r.Seed == 0 {
		r.Seed = defaultSeed
	}
	return r
}

// Validate rejects specs the generator cannot run meaningfully.
// Zero-valued knobs are fine (defaults fill them); negative ones are
// not.
func (s Spec) Validate() error {
	if Kinds.Tokens(s.Kind) == nil {
		return fmt.Errorf("workload: unknown kind %v", s.Kind)
	}
	if SizeDists.Tokens(s.SizeDist) == nil {
		return fmt.Errorf("workload: unknown size distribution %v", s.SizeDist)
	}
	if s.RequestSegs < 0 || s.ResponseSegs < 0 || s.FlowSegs < 0 {
		return fmt.Errorf("workload: negative message size in %+v", s)
	}
	if s.Think < 0 || s.FlowGap < 0 || s.BurstOn < 0 || s.BurstOff < 0 {
		return fmt.Errorf("workload: negative duration in %+v", s)
	}
	if s.FlowRate < 0 || s.Clients < 0 {
		return fmt.Errorf("workload: negative open-loop load in %+v", s)
	}
	if s.ParetoAlpha != 0 && s.ParetoAlpha <= 1 {
		return fmt.Errorf("workload: ParetoAlpha must exceed 1 for a finite mean, got %g", s.ParetoAlpha)
	}
	if s.Kind == Trace && s.TracePath == "" {
		return fmt.Errorf("workload: trace workload needs a trace path")
	}
	if s.Kind != Trace && s.TracePath != "" {
		return fmt.Errorf("workload: trace path set on non-trace kind %v", s.Kind)
	}
	return nil
}

// Suffix returns the workload's contribution to an experiment name:
// empty for the default bulk workload (so legacy names are unchanged),
// otherwise the kind plus every explicitly set knob, so that every
// distinct grid point names distinctly.
func (s Spec) Suffix() string {
	if s.Kind == Bulk {
		return ""
	}
	var b strings.Builder
	b.WriteString("/")
	b.WriteString(s.Kind.String())
	add := func(tag, val string) { fmt.Fprintf(&b, ",%s=%s", tag, val) }
	if s.RequestSegs != 0 {
		add("req", strconv.Itoa(s.RequestSegs))
	}
	if s.ResponseSegs != 0 {
		add("resp", strconv.Itoa(s.ResponseSegs))
	}
	if s.Think != 0 {
		add("think", s.Think.String())
	}
	if s.FlowSegs != 0 {
		add("segs", strconv.Itoa(s.FlowSegs))
	}
	if s.FlowGap != 0 {
		add("gap", s.FlowGap.String())
	}
	if s.BurstOn != 0 {
		add("on", s.BurstOn.String())
	}
	if s.BurstOff != 0 {
		add("off", s.BurstOff.String())
	}
	if s.FlowRate != 0 {
		add("rate", strconv.FormatFloat(s.FlowRate, 'g', -1, 64))
	}
	if s.Clients != 0 {
		add("cl", strconv.Itoa(s.Clients))
	}
	if s.ParetoAlpha != 0 {
		add("a", strconv.FormatFloat(s.ParetoAlpha, 'g', -1, 64))
	}
	if s.SizeDist != SizeFixed {
		add("sz", s.SizeDist.String())
	}
	if s.TracePath != "" {
		add("trace", path.Base(s.TracePath))
	}
	if s.Seed != 0 {
		add("seed", strconv.FormatUint(s.Seed, 16))
	}
	return b.String()
}
