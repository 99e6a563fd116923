package bench

// Experiment identity for the campaign result cache (internal/store).
// The determinism contract makes a result a pure function of two
// things: the normalized configuration and the model build that ran
// it. Normalize pins the first; a built machine's Fingerprint proxies
// the second with the engine registry fingerprint, so a model change
// that adds or removes any bound callback or timer invalidates every
// cached result.

// Normalize returns the fault-complete, connection-balanced form of a
// configuration — the canonical identity under which results are
// cached and compared. It applies exactly the normalization Prepare
// applies before building a machine (default fault schedule, balanced
// connection count, default calibration), so two configurations that
// run identically normalize identically. Invalid configurations are
// rejected, mirroring Run.
func Normalize(cfg Config) (Config, error) {
	cfg.Fault = cfg.Fault.withDefaults(cfg.Duration)
	if err := cfg.Validate(); err != nil {
		return Config{}, err
	}
	if cfg.ConnsPerGuestPerNIC <= 0 {
		cfg.ConnsPerGuestPerNIC = connsFor(cfg.Guests)
	}
	if cfg.Cal == (Calibration{}) {
		cfg.Cal = Default()
	}
	return cfg, nil
}

// Fingerprint returns the machine's engine registry fingerprint: the
// bound-callback and timer counts, a cheap proxy for "this model
// build".
func (m *Machine) Fingerprint() (binds, timers int) {
	return m.Eng.Binds(), m.Eng.Timers()
}
