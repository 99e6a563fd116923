package campaign

import (
	"bytes"
	"encoding"
	"encoding/csv"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"strconv"

	"cdna/internal/bench"
)

// Record is the serialized form of one experiment outcome. Failed
// experiments carry their configuration and error string with a zero
// result, so a result file always has one record per grid point.
type Record struct {
	Name string `json:"name"`
	bench.Result
	Error string `json:"error,omitempty"`
}

// Failed reports whether the experiment errored.
func (r Record) Failed() bool { return r.Error != "" }

// Records converts outcomes to their serialized form, preserving order.
func Records(outs []bench.Outcome) []Record {
	recs := make([]Record, len(outs))
	for i, out := range outs {
		recs[i] = Record{Name: out.Config.Name(), Result: out.Result}
		if out.Err != nil {
			recs[i].Error = out.Err.Error()
			recs[i].Result.Config = out.Config
		}
	}
	return recs
}

// WriteJSON writes the outcomes as an indented JSON array of Records —
// the cmd/cdnasweep output format.
func WriteJSON(w io.Writer, outs []bench.Outcome) error {
	b, err := json.MarshalIndent(Records(outs), "", "  ")
	if err != nil {
		return err
	}
	b = append(b, '\n')
	_, err = w.Write(b)
	return err
}

// csvHeader is the flat column set of WriteCSV, one column per
// configuration axis and result metric.
var csvHeader = []string{
	"name", "mode", "nic", "dir", "workload", "guests", "nics", "conns", "window",
	"protection", "max_enqueue_batch", "direct_per_context_irq", "tx_coalesce_pkts",
	"warmup_s", "duration_s",
	"mbps", "pkt_per_sec",
	"hyp", "driver_os", "driver_user", "guest_os", "guest_user", "idle",
	"driver_intr_per_sec", "guest_intr_per_sec", "phys_irq_per_sec",
	"latency_p50_us", "latency_p90_us",
	"drops", "retransmits", "fairness", "faults", "events",
	"rpc_per_sec", "flows_per_sec", "msg_lat_p50_us", "msg_lat_p99_us",
	"arrivals_per_sec", "trace_skipped",
	"error",
}

// enumCell is an enum's token; an enum's MarshalText never fails.
func enumCell(v encoding.TextMarshaler) string {
	b, _ := v.MarshalText()
	return string(b)
}

// WriteCSV writes the outcomes as one flat CSV row per experiment, for
// spreadsheet and dataframe import.
func WriteCSV(w io.Writer, outs []bench.Outcome) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(csvHeader); err != nil {
		return err
	}
	f := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	u := func(v uint64) string { return strconv.FormatUint(v, 10) }
	for _, rec := range Records(outs) {
		cfg, res := rec.Result.Config, rec.Result
		row := []string{
			rec.Name,
			enumCell(cfg.Mode), enumCell(cfg.NIC), enumCell(cfg.Dir),
			enumCell(cfg.Workload.Kind),
			strconv.Itoa(cfg.Guests), strconv.Itoa(cfg.NICs),
			strconv.Itoa(cfg.ConnsPerGuestPerNIC), strconv.Itoa(cfg.Window),
			enumCell(cfg.Protection),
			strconv.Itoa(cfg.MaxEnqueueBatch), strconv.FormatBool(cfg.DirectPerContextIRQ),
			strconv.Itoa(cfg.TxCoalescePkts),
			f(cfg.Warmup.Seconds()), f(cfg.Duration.Seconds()),
			f(res.Mbps), f(res.PktPerSec),
			f(res.Profile.Hyp), f(res.Profile.DriverOS), f(res.Profile.DriverUser),
			f(res.Profile.GuestOS), f(res.Profile.GuestUser), f(res.Profile.Idle),
			f(res.DriverIntrPerSec), f(res.GuestIntrPerSec), f(res.PhysIRQPerSec),
			f(res.LatencyP50us), f(res.LatencyP90us),
			u(res.Drops), u(res.Retransmits), f(res.Fairness), u(res.Faults), u(res.Events),
			f(res.RPCPerSec), f(res.FlowsPerSec), f(res.MsgLatP50us), f(res.MsgLatP99us),
			f(res.ArrivalsPerSec), strconv.Itoa(res.TraceSkipped),
			rec.Error,
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// ReadGrids parses a cmd/cdnasweep -spec file: either a single Grid
// object or an array of Grids, distinguished by the leading byte so
// that a parse error inside the chosen form is reported as-is.
// Unknown keys are rejected, so a typo'd axis name fails loudly
// instead of silently collapsing to the default grid.
func ReadGrids(r io.Reader) ([]Grid, error) {
	b, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	if trimmed := bytes.TrimLeft(b, " \t\r\n"); len(trimmed) > 0 && trimmed[0] == '[' {
		var grids []Grid
		if err := decodeStrict(b, &grids); err != nil {
			return nil, fmt.Errorf("campaign: decoding grid array spec: %w", err)
		}
		return grids, nil
	}
	var g Grid
	if err := decodeStrict(b, &g); err != nil {
		return nil, fmt.Errorf("campaign: decoding grid spec: %w", err)
	}
	return []Grid{g}, nil
}

func decodeStrict(b []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

// ErrFailures is returned by Check when a campaign had failed
// experiments.
var ErrFailures = errors.New("campaign: some experiments failed")

// Check summarizes a campaign's failures: nil when everything
// succeeded, otherwise an error wrapping ErrFailures that names the
// first failing configuration and the failure count.
func Check(outs []bench.Outcome) error {
	errs := Errs(outs)
	if len(errs) == 0 {
		return nil
	}
	for _, out := range outs {
		if out.Err != nil {
			return fmt.Errorf("%w: %d of %d (first: %s: %v)",
				ErrFailures, len(errs), len(outs), out.Config.Name(), out.Err)
		}
	}
	return ErrFailures
}
