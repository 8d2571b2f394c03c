//go:build !race

// Package testenv tells tests what kind of binary they are running in.
package testenv

// Race reports whether this binary was built with the race detector, whose
// shadow-memory bookkeeping perturbs allocation counts; the
// allocation-regression tests skip themselves under it (the plain CI test
// step still enforces them).
const Race = false
