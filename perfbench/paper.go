package main

import (
	"fmt"
	"math"

	"cdna/internal/bench"
	"cdna/internal/core"
)

// point names one single-host experiment of the paper grid.
type point struct {
	mode   bench.Mode
	nic    bench.NICKind
	guests int
	nics   int
	dir    bench.Direction
	prot   core.Mode
}

var (
	nativeTx   = point{bench.ModeNative, bench.NICIntel, 1, 6, bench.Tx, core.ModeHypercall}
	nativeRx   = point{bench.ModeNative, bench.NICIntel, 1, 6, bench.Rx, core.ModeHypercall}
	xenTx      = point{bench.ModeXen, bench.NICIntel, 1, 2, bench.Tx, core.ModeHypercall}
	xenRx      = point{bench.ModeXen, bench.NICIntel, 1, 2, bench.Rx, core.ModeHypercall}
	xenRiceTx  = point{bench.ModeXen, bench.NICRice, 1, 2, bench.Tx, core.ModeHypercall}
	xenRiceRx  = point{bench.ModeXen, bench.NICRice, 1, 2, bench.Rx, core.ModeHypercall}
	cdnaTx     = point{bench.ModeCDNA, bench.NICRice, 1, 2, bench.Tx, core.ModeHypercall}
	cdnaRx     = point{bench.ModeCDNA, bench.NICRice, 1, 2, bench.Rx, core.ModeHypercall}
	cdnaOffTx  = point{bench.ModeCDNA, bench.NICRice, 1, 2, bench.Tx, core.ModeOff}
	cdnaOffRx  = point{bench.ModeCDNA, bench.NICRice, 1, 2, bench.Rx, core.ModeOff}
	xen24Tx    = point{bench.ModeXen, bench.NICIntel, 24, 2, bench.Tx, core.ModeHypercall}
	xen24Rx    = point{bench.ModeXen, bench.NICIntel, 24, 2, bench.Rx, core.ModeHypercall}
	cdna24Tx   = point{bench.ModeCDNA, bench.NICRice, 24, 2, bench.Tx, core.ModeHypercall}
	cdna24Rx   = point{bench.ModeCDNA, bench.NICRice, 24, 2, bench.Rx, core.ModeHypercall}
	mbps       = func(r bench.Result) float64 { return r.Mbps }
	idlePct    = func(r bench.Result) float64 { return 100 * r.Profile.Idle }
	hypPct     = func(r bench.Result) float64 { return 100 * r.Profile.Hyp }
	guestIntr  = func(r bench.Result) float64 { return r.GuestIntrPerSec }
	driverIntr = func(r bench.Result) float64 { return r.DriverIntrPerSec }
	driverPct  = func(r bench.Result) float64 { return 100 * (r.Profile.DriverOS + r.Profile.DriverUser) }
	guestOSPct = func(r bench.Result) float64 { return 100 * r.Profile.GuestOS }
)

// datum is one number the paper reports. Value reads the reproduced
// number from the paper workload's results; ratios divide two.
type datum struct {
	Name   string
	Source string // table or figure of the paper
	Paper  float64
	num    point
	den    *point // nil unless the datum is a ratio num/den
	metric func(bench.Result) float64
}

// paperData is the benchmark's own copy of the numbers
// internal/bench/shape_test.go asserts.
var paperData = []datum{
	{"native tx Mb/s", "Table 1", 5126, nativeTx, nil, mbps},
	{"native rx Mb/s", "Table 1", 3629, nativeRx, nil, mbps},
	{"Xen/Intel tx Mb/s", "Table 2", 1602, xenTx, nil, mbps},
	{"Xen/RiceNIC tx Mb/s", "Table 2", 1674, xenRiceTx, nil, mbps},
	{"CDNA tx Mb/s", "Table 2", 1867, cdnaTx, nil, mbps},
	{"CDNA tx idle %", "Table 2", 50.8, cdnaTx, nil, idlePct},
	{"CDNA tx hyp %", "Table 2", 10.2, cdnaTx, nil, hypPct},
	{"CDNA tx guest intr/s", "Table 2", 13659, cdnaTx, nil, guestIntr},
	{"Xen tx driver domain %", "Table 2", 36.5, xenTx, nil, driverPct},
	{"Xen tx driver intr/s", "Table 2", 7438, xenTx, nil, driverIntr},
	{"Xen tx guest intr/s", "Table 2", 7853, xenTx, nil, guestIntr},
	{"Xen/Intel rx Mb/s", "Table 3", 1112, xenRx, nil, mbps},
	{"Xen/RiceNIC rx Mb/s", "Table 3", 1075, xenRiceRx, nil, mbps},
	{"CDNA rx Mb/s", "Table 3", 1874, cdnaRx, nil, mbps},
	{"CDNA rx idle %", "Table 3", 40.9, cdnaRx, nil, idlePct},
	{"CDNA rx guest OS %", "Table 3", 48.0, cdnaRx, nil, guestOSPct},
	{"CDNA tx protection-off hyp %", "Table 4", 1.9, cdnaOffTx, nil, hypPct},
	{"CDNA rx protection-off hyp %", "Table 4", 1.9, cdnaOffRx, nil, hypPct},
	{"CDNA/Xen tx at 24 guests", "Figure 3", 2.1, cdna24Tx, &xen24Tx, mbps},
	{"CDNA/Xen rx at 24 guests", "Figure 4", 3.3, cdna24Rx, &xen24Rx, mbps},
}

// pointOf returns the grid point of a base (non-ablation) configuration.
func pointOf(c bench.Config) (point, bool) {
	if c.Hosts > 1 || c.MaxEnqueueBatch != 0 || c.DirectPerContextIRQ || c.TxCoalescePkts != 0 {
		return point{}, false
	}
	return point{c.Mode, c.NIC, c.Guests, c.NICs, c.Dir, c.Protection}, true
}

// fidelity is one datum reproduced.
type fidelity struct {
	datum
	Got    float64
	RelErr float64 // |got - paper| / paper
}

// paperFidelity reproduces every datum from a batch's outcomes.
func paperFidelity(outs []bench.Outcome) ([]fidelity, error) {
	byPoint := make(map[point]bench.Result)
	for _, out := range outs {
		if p, ok := pointOf(out.Config); ok && out.Err == nil {
			byPoint[p] = out.Result
		}
	}
	get := func(p point, f func(bench.Result) float64) (float64, error) {
		r, ok := byPoint[p]
		if !ok {
			return 0, fmt.Errorf("paper: no result for %+v", p)
		}
		return f(r), nil
	}
	fs := make([]fidelity, 0, len(paperData))
	for _, d := range paperData {
		got, err := get(d.num, d.metric)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", d.Name, err)
		}
		if d.den != nil {
			den, err := get(*d.den, d.metric)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", d.Name, err)
			}
			got /= den
		}
		fs = append(fs, fidelity{datum: d, Got: got, RelErr: math.Abs(got-d.Paper) / d.Paper})
	}
	return fs, nil
}

// paperErrPct is the mean relative error over the data, in percent.
func paperErrPct(fs []fidelity) float64 {
	var sum float64
	for _, f := range fs {
		sum += f.RelErr
	}
	return 100 * sum / float64(len(fs))
}
