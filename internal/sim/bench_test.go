package sim

import (
	"testing"

	"repro/internal/workload"
)

// benchScheme measures whole-loop simulator throughput for one scheme and
// benchmark on the Fig 8 machine (4 cores, 1 channel).
func benchScheme(b *testing.B, scheme, bench string) {
	spec, err := workload.ByName(bench)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		r, err := Run(Config{
			SchemeName: scheme, Benchmark: spec,
			Cores: 4, Channels: 1, OpsPerCore: 2_000, Seed: int64(i + 1),
		})
		if err != nil {
			b.Fatal(err)
		}
		if r.Cycles == 0 {
			b.Fatal("no cycles")
		}
	}
}

func BenchmarkSimNonSecure(b *testing.B) { benchScheme(b, "nonsecure", "pr") }
func BenchmarkSimSynergy(b *testing.B)   { benchScheme(b, "synergy", "pr") }
func BenchmarkSimITESP(b *testing.B)     { benchScheme(b, "itesp", "pr") }

// BenchmarkSimITESPLight runs a compute-bound benchmark (namd, MPKI 1.2),
// where cores retire between sparse misses and the CPU burst, not DRAM,
// dominates the loop.
func BenchmarkSimITESPLight(b *testing.B) { benchScheme(b, "itesp", "namd") }
