// Package phylomem is a Go reproduction of "Efficient Memory Management in
// Likelihood-based Phylogenetic Placement" (Barbera & Stamatakis, 2021): a
// maximum-likelihood phylogenetic placement system (EPA-NG equivalent) built
// on a slot-managed conditional-likelihood-vector engine (libpll-2's Active
// Management of CLVs), together with the baseline tool, workload synthesis,
// and the full experiment harness that regenerates the paper's tables and
// figures.
//
// See README.md for the architecture overview, DESIGN.md for the system
// inventory and per-experiment index, and EXPERIMENTS.md for measured
// results. The root package only anchors the module; all functionality
// lives under internal/ and is exercised through the cmd/ binaries and the
// packages' Example tests.
package phylomem
