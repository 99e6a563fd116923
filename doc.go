// Package cdna is a full-system simulation study of Concurrent Direct
// Network Access (CDNA), reproducing "Concurrent Direct Network Access
// for Virtual Machine Monitors" (Willmann et al., HPCA 2007).
//
// The public entry points are the binaries in cmd/; the library lives
// under internal/ with the paper's contribution in internal/core and
// one package per substrate (see DESIGN.md for the inventory and
// EXPERIMENTS.md for the paper-vs-measured results).
package cdna
