package main

import (
	"reflect"
	"testing"

	"fdpsim"
	"fdpsim/internal/cli"
)

// TestReplayConfig: -replay builds through the shared config axis under
// fdpsim's -level rule. A level outside 1..5 is bad usage for a
// conventional prefetcher and ignored without one; an invocation that
// worked before gets the configuration it always did.
func TestReplayConfig(t *testing.T) {
	none, stream3 := fdpsim.Conventional(fdpsim.PrefNone, 0), fdpsim.Conventional(fdpsim.PrefStream, 3)
	for _, c := range []struct {
		name, prefetcher string
		level            int
		want             *fdpsim.Config // nil: bad usage
	}{
		{"level 0", "stream", 0, nil},
		{"level 6", "stream", 6, nil},
		{"none with level 5", "none", 5, &none},
		{"stream at level 3", "stream", 3, &stream3},
		{"unknown prefetcher", "nope", 3, nil},
	} {
		cfg, err := replayConfig(c.prefetcher, c.level)
		switch {
		case c.want == nil:
			if code := cli.ExitCode(err); code != cli.ExitUsage {
				t.Errorf("%s: err %v (exit %d), want bad usage", c.name, err, code)
			}
		case err != nil || !reflect.DeepEqual(cfg, *c.want):
			t.Errorf("%s: config %+v, err %v; want %+v", c.name, cfg, err, *c.want)
		}
	}
}
