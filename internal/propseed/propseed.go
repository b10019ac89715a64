// Package propseed gives every seeded property suite one override: the
// PROP_SEED environment variable. Each suite keeps its own default seed
// and its own way of deriving a run's seed from the one Seed returns, so
//
//	PROP_SEED=<seed> go test ./internal/...
//
// moves every suite at once, and the same command with -run replays one.
package propseed

import (
	"os"
	"strconv"
	"testing"
)

// envVar is the environment variable that overrides every suite's seed.
const envVar = "PROP_SEED"

// Seed returns the seed a property suite runs from: def, unless PROP_SEED
// holds another. A malformed PROP_SEED fails the test. The seed is logged,
// so a failing run names the value that replays it.
func Seed(t testing.TB, def int64) int64 {
	t.Helper()
	return seed(t, os.Getenv(envVar), def)
}

// seed is Seed with the variable's value passed in.
func seed(t testing.TB, env string, def int64) int64 {
	t.Helper()
	s := def
	if env != "" {
		v, err := strconv.ParseInt(env, 10, 64)
		if err != nil {
			t.Fatalf("bad %s %q: %v", envVar, env, err)
		}
		s = v
	}
	t.Logf("property seed %d (override with %s)", s, envVar)
	return s
}
