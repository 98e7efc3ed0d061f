// Package dmt is a from-scratch Go reproduction of "Direct Memory
// Translation for Virtualized Clouds" (Zhang et al., ASPLOS 2024): the
// DMT/pvDMT hardware-software co-design, every substrate it depends on
// (buddy allocator, radix page tables, TLB/PWC/cache hierarchy, KVM-style
// virtualization with shadow paging and nested virtualization), the four
// comparison baselines (ECPT, FPT, Agile Paging, ASAP), synthetic
// reproductions of the seven evaluation workloads, and a benchmark harness
// that regenerates every table and figure of the paper's evaluation.
//
// See README.md for a tour, DESIGN.md for the system inventory and
// per-experiment index, and EXPERIMENTS.md for paper-vs-measured results.
// cmd/figures regenerates every experiment, and the golden tests under
// internal/experiments lock its tables; bench/ is the simulator's own
// benchmark:
//
//	go run ./cmd/figures -all -q
//	bash bench/run.sh --workload walk-gups4k --seconds 20 --trace 0
package dmt
