package main

import "testing"

// The serving kernels double as ordinary go-test benchmarks so the
// ProbeCache gate's two sides can be measured in isolation
// (go test ./cmd/cqabench -bench 'Probe|Admission') without a full
// cqabench -json run.

func benchKernel(b *testing.B, name string) {
	for _, k := range kernelBenchmarks() {
		if k.name == name {
			k.fn(b)
			return
		}
	}
	b.Fatalf("no kernel %s", name)
}

func BenchmarkProbeThroughput(b *testing.B)     { benchKernel(b, "ProbeThroughput") }
func BenchmarkProbeColdRepeat(b *testing.B)     { benchKernel(b, "ProbeColdRepeat") }
func BenchmarkProbeMixed(b *testing.B)          { benchKernel(b, "ProbeMixed") }
func BenchmarkAdmissionOverhead(b *testing.B)   { benchKernel(b, "AdmissionOverhead") }
func BenchmarkColdProbePadded0(b *testing.B)    { benchKernel(b, "ColdProbePadded0") }
func BenchmarkColdProbePadded100k(b *testing.B) { benchKernel(b, "ColdProbePadded100k") }
func BenchmarkJournalAppend1k(b *testing.B)     { benchKernel(b, "JournalAppend1k") }
func BenchmarkJournalAppend100k(b *testing.B)   { benchKernel(b, "JournalAppend100k") }
