//go:build race

package testenv

// Race mirrors race_off.go for -race builds.
const Race = true
