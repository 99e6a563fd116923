package bench

// Warm-start forking: a campaign grid that sweeps fault scenarios over
// one underlying machine re-simulates the same warmup for every point.
// The warmup is deterministic and fault-independent (faults arm at
// window open), so it can be simulated once, snapshotted, and forked —
// each variant restores the image and runs only its measurement
// window. The results are byte-identical to cold runs; only the
// redundant warmup events are saved.

// WarmStats reports what a forked run saved versus cold execution.
type WarmStats struct {
	// Groups is the number of distinct warm-start bases (machines whose
	// warmup was simulated once).
	Groups int `json:"groups"`
	// Runs is the total number of configurations executed.
	Runs int `json:"runs"`
	// WarmupEvents is the total events simulated across all shared
	// warmups (each counted once).
	WarmupEvents uint64 `json:"warmup_events"`
	// EventsSaved is the warmup events NOT re-simulated: each group's
	// warmup event count times its fork count beyond the first.
	EventsSaved uint64 `json:"events_saved"`
	// SnapshotBytes is the total size of the warmup images.
	SnapshotBytes int `json:"snapshot_bytes"`
}

// RunWarmForked runs every configuration, sharing one simulated warmup
// among all configurations with the same warm-start base (the config
// with its fault zeroed — Config is the group key, so grids that also
// differ in timing or calibration never share). Outcomes are returned
// in input order, each identical to what Run would produce; per-config
// errors are recorded in the outcome, not returned.
func RunWarmForked(cfgs []Config) ([]Outcome, WarmStats, error) {
	outs := make([]Outcome, len(cfgs))
	groups := make(map[Config][]int)
	var order []Config
	var stats WarmStats
	stats.Runs = len(cfgs)
	for i, cfg := range cfgs {
		// The outcome keeps the caller's config verbatim (like Run);
		// normalization here is only for validation and grouping —
		// Prepare re-applies it inside runForked.
		outs[i].Config = cfg
		cfg.Fault = cfg.Fault.withDefaults(cfg.Duration)
		if err := cfg.Validate(); err != nil {
			outs[i].Err = err
			continue
		}
		if cfg.ConnsPerGuestPerNIC <= 0 {
			cfg.ConnsPerGuestPerNIC = connsFor(cfg.Guests)
		}
		base := warmBase(cfg)
		if _, ok := groups[base]; !ok {
			order = append(order, base)
		}
		groups[base] = append(groups[base], i)
	}

	for _, base := range order {
		idxs := groups[base]
		img, warmupEvents, err := warmupImage(base)
		if err != nil {
			for _, i := range idxs {
				outs[i].Err = err
			}
			continue
		}
		stats.Groups++
		stats.WarmupEvents += warmupEvents
		stats.EventsSaved += warmupEvents * uint64(len(idxs)-1)
		stats.SnapshotBytes += len(img)
		for _, i := range idxs {
			outs[i] = runForked(outs[i].Config, img)
		}
	}
	return outs, stats, nil
}

// warmupImage simulates a base configuration's warmup and snapshots it.
func warmupImage(base Config) ([]byte, uint64, error) {
	m, err := Prepare(base)
	if err != nil {
		return nil, 0, err
	}
	m.Launch()
	m.RunTo(base.Warmup)
	img, err := m.Snapshot()
	if err != nil {
		return nil, 0, err
	}
	return img, m.Eng.Fired(), nil
}

// runForked runs one configuration's measurement window from a warmup
// image, producing the same outcome as a cold Run.
func runForked(cfg Config, img []byte) Outcome {
	out := Outcome{Config: cfg}
	m, err := Prepare(cfg)
	if err != nil {
		out.Err = err
		return out
	}
	if err := m.Restore(img); err != nil {
		out.Err = err
		return out
	}
	m.OpenWindow()
	m.RunTo(m.cfg.Warmup + m.cfg.Duration)
	out.Result = m.Collect()
	return out
}
