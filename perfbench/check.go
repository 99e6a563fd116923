package main

import (
	"crypto/sha256"
	"embed"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"

	"cdna/internal/bench"
	"cdna/internal/campaign"
)

// digestFile is a workload's stored output digests: the SHA-256 of each
// experiment's campaign.Record JSON at the recorded seed.
type digestFile struct {
	Seed    uint64            `json:"seed"`
	Digests map[string]string `json:"digests"` // experiment name → hex digest
}

//go:embed digests/*.json
var digestFS embed.FS

// recordedDigests returns the stored digests of a workload, or ok=false
// when none are stored.
func recordedDigests(workload string) (digestFile, bool, error) {
	var df digestFile
	b, err := digestFS.ReadFile("digests/" + workload + ".json")
	if errors.Is(err, fs.ErrNotExist) {
		return df, false, nil
	}
	if err != nil {
		return df, false, err
	}
	if err := json.Unmarshal(b, &df); err != nil {
		return df, false, fmt.Errorf("digests/%s.json: %w", workload, err)
	}
	return df, true, nil
}

// writeDigests stores the digests of one batch as
// perfbench/digests/<workload>.json, relative to the repository root.
func writeDigests(workload string, seed uint64, outs []bench.Outcome) error {
	df := digestFile{Seed: seed, Digests: make(map[string]string, len(outs))}
	for _, out := range outs {
		d, err := digest(out)
		if err != nil {
			return fmt.Errorf("%s: %w", out.Config.Name(), err)
		}
		df.Digests[out.Config.Name()] = d
	}
	b, err := json.MarshalIndent(df, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join("perfbench", "digests", workload+".json"), append(b, '\n'), 0o644)
}

// digest is the SHA-256 of the outcome's record in the JSON encoding
// campaign writes. Encoding fails on a NaN or infinite value, which is
// how the check rejects non-finite outputs.
func digest(out bench.Outcome) (string, error) {
	b, err := json.Marshal(campaign.Records([]bench.Outcome{out})[0])
	if err != nil {
		return "", fmt.Errorf("non-finite or unencodable result: %w", err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

// checker validates outcomes. Every experiment must run without error,
// encode (all values finite), report no CDNA protection faults, produce
// the same record on every repetition of the batch, and — at the
// recorded seed — match the stored digest.
type checker struct {
	want  map[string]string // nil unless the run uses the recorded seed
	first map[string]string // digests of the first batch checked

	attempted, failed int
	reasons           []string // first few failures, for the summary
}

func newChecker(workload string, seed uint64) (*checker, error) {
	c := &checker{first: make(map[string]string)}
	df, ok, err := recordedDigests(workload)
	if err != nil {
		return nil, err
	}
	if ok && df.Seed == seed {
		c.want = df.Digests
	}
	return c, nil
}

// check validates one batch's outcomes and counts them.
func (c *checker) check(outs []bench.Outcome) {
	for _, out := range outs {
		c.attempted++
		if err := c.problem(out); err != nil {
			c.failed++
			if len(c.reasons) < 5 {
				c.reasons = append(c.reasons, fmt.Sprintf("%s: %v", out.Config.Name(), err))
			}
		}
	}
}

// problem returns why an outcome fails the output check, or nil.
func (c *checker) problem(out bench.Outcome) error {
	if out.Err != nil {
		return out.Err
	}
	name := out.Config.Name()
	d, err := digest(out)
	if err != nil {
		return err
	}
	if out.Config.Mode == bench.ModeCDNA && out.Result.Faults != 0 {
		return fmt.Errorf("%d CDNA protection faults", out.Result.Faults)
	}
	if prev, ok := c.first[name]; !ok {
		c.first[name] = d
	} else if prev != d {
		return errors.New("result differs from the first batch of this run")
	}
	if c.want != nil {
		want, ok := c.want[name]
		if !ok {
			return errors.New("no stored digest for this experiment")
		}
		if want != d {
			return errors.New("result differs from the stored digest")
		}
	}
	return nil
}
