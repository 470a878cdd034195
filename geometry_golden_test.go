package fdpsim

import "testing"

// TestGeometryGolden pins Result fingerprints for shapes that neither the
// engine goldens nor the benchmark digests reach: those all run a
// 128-entry ROB, a 64-entry stream tracker and power-of-two way counts.
// Each case starts from goldenBase and changes the result against it.
// The fingerprints were captured before the caches moved to one flat tag
// store, the stream tracker to packed match keys and the load ring to a
// ROB-sized ring, so they hold those layouts to the model they replaced.
func TestGeometryGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs small simulations; skipped with -short")
	}
	cases := []struct {
		name     string
		kind     PrefetcherKind
		workload string
		set      func(*Config)
		want     string
	}{
		// A ROB whose size is not a power of two wraps its ring at 96.
		{"rob96", PrefStream, "mixedphase", func(c *Config) { c.CPU.ROB = 96 }, "ad796397ebc594706cf9425e5ee11894"},
		// A ROB twice the old load ring: more loads than 4,096 slots may
		// be in flight at once.
		{"rob8192", PrefStream, "chaserand", func(c *Config) { c.CPU.ROB = 8192 }, "6c476da449bdf11a6c7a62bb39a57f34"},
		{"stream16-ramp", PrefStream, "shortstream", func(c *Config) {
			c.StreamEntries = 16
			c.PerStreamRamp = true
		}, "2ed55ad7f874d86b5baf41b5086e6e42"},
		{"stream48", PrefStream, "codewalk", func(c *Config) { c.StreamEntries = 48 }, "1cef68b8973e8ab7241f6c961708be7e"},
		{"hybrid48", PrefHybrid, "spmv", func(c *Config) { c.StreamEntries = 48 }, "e7991abcb6e992b3fd2b51a168ad01ba"},
		// 768 blocks in 12 ways: 64 sets, and MID/LRU-4 depths of 6 and 3.
		{"l2-12way", PrefStream, "hotcold", func(c *Config) {
			c.L2Blocks = 768
			c.L2Ways = 12
		}, "c716089c314cf88563ec92a5d2b3456a"},
		{"l1d-direct", PrefStream, "smallrand", func(c *Config) { c.L1Ways = 1 }, "0ad283178c0e0e2e4afe194bef870562"},
		// L1Ways 0 asks for one fully associative set.
		{"l1d-full", PrefStream, "spmv", func(c *Config) { c.L1Ways = 0 }, "c01cdc40f8f73604f30c7f06883f5c43"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			cfg := goldenBase(c.kind, c.workload)
			c.set(&cfg)
			if got := singleCase(c.name, cfg).run(t); got != c.want {
				t.Errorf("Result fingerprint drifted: got %s want %s", got, c.want)
			}
		})
	}
}
