package bench

import (
	"testing"

	"cdna/internal/topo"
)

// TestFabricConfigValidation covers the bench-layer gate: multi-tier
// fabrics require a multi-host machine, and malformed specs are
// rejected before building anything.
func TestFabricConfigValidation(t *testing.T) {
	cfg := DefaultConfig(ModeCDNA, NICRice, Tx)
	cfg.Fabric = topo.FabricSpec{Kind: topo.KindLeafSpine}
	if err := cfg.Validate(); err == nil {
		t.Fatal("single-host leaf-spine config accepted")
	}
	cfg.Hosts = 4
	cfg.Pattern = PatternIncast
	if err := cfg.Validate(); err != nil {
		t.Fatalf("multi-host leaf-spine config rejected: %v", err)
	}
	cfg.Fabric.Spines = -1
	if err := cfg.Validate(); err == nil {
		t.Fatal("negative spine count accepted")
	}
	cfg.Fabric.Spines = 0
	cfg.Fabric.Oversub = -2
	if err := cfg.Validate(); err == nil {
		t.Fatal("negative oversubscription accepted")
	}
}

// TestFabricNamesDistinct checks that fabric variants of the same rack
// produce distinct config names (the campaign grid's identity).
func TestFabricNamesDistinct(t *testing.T) {
	seen := map[string]bool{}
	for _, spec := range []topo.FabricSpec{
		{},
		{Kind: topo.KindLeafSpine},
		{Kind: topo.KindLeafSpine, Spines: 4},
		{Kind: topo.KindLeafSpine, Oversub: 4},
		{Kind: topo.KindFatTree},
	} {
		cfg := DefaultConfig(ModeCDNA, NICRice, Tx)
		cfg.Hosts = 4
		cfg.Pattern = PatternIncast
		cfg.Fabric = spec
		name := cfg.Name()
		if seen[name] {
			t.Fatalf("duplicate config name %q for spec %+v", name, spec)
		}
		seen[name] = true
	}
}
