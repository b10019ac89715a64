package propseed

import (
	"fmt"
	"strings"
	"testing"
)

// fakeTB records what seed reports instead of failing or logging the
// running test. Fatalf does not stop the caller, so seed runs on past it.
type fakeTB struct {
	testing.TB
	fatal []string
	logs  []string
}

func (f *fakeTB) Helper() {}

func (f *fakeTB) Fatalf(format string, args ...any) {
	f.fatal = append(f.fatal, fmt.Sprintf(format, args...))
}

func (f *fakeTB) Logf(format string, args ...any) {
	f.logs = append(f.logs, fmt.Sprintf(format, args...))
}

func TestSeed(t *testing.T) {
	for _, c := range []struct {
		name, env string
		want      int64
		bad       bool
	}{
		{name: "unset", env: "", want: 20261018},
		{name: "set", env: "424242", want: 424242},
		{name: "negative", env: "-7", want: -7},
		{name: "malformed", env: "12ab", bad: true},
	} {
		t.Run(c.name, func(t *testing.T) {
			f := &fakeTB{}
			got := seed(f, c.env, 20261018)
			if c.bad {
				if len(f.fatal) != 1 || !strings.Contains(f.fatal[0], "PROP_SEED") || !strings.Contains(f.fatal[0], c.env) {
					t.Fatalf("failures %q; want one naming PROP_SEED and %q", f.fatal, c.env)
				}
				return
			}
			if len(f.fatal) != 0 {
				t.Fatalf("unexpected failure %q", f.fatal)
			}
			if got != c.want {
				t.Errorf("seed = %d, want %d", got, c.want)
			}
			want := fmt.Sprintf("property seed %d (override with PROP_SEED)", c.want)
			if len(f.logs) != 1 || f.logs[0] != want {
				t.Errorf("logs %q, want [%q]", f.logs, want)
			}
		})
	}
}
