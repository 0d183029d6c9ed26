package main

import "fmt"

// goldenDigests are the output digests of each workload at defaultSeed:
// mesh64-pots hashes the Report JSON of input 0, suite-quick the
// rendered E1..E19 tables, daemon-jobs the first results of client 0,
// and campaign the frontier CSV. A change that alters any simulated
// statistic fails the benchmark's correctness check at the default seed.
var goldenDigests = map[string]string{
	"mesh64-pots": "617c131fad720240ac000ee4d186629185a83025bbe585da40d3a01bb02684e0",
	"suite-quick": "0230feeddbfb1a726e3db722ab38ecaf14bc9eea5babac6fdcd717fd4391e0eb",
	"daemon-jobs": "c67a8652f702af8bd6aa3f0a01759a322134c91f95d4b3555ed3939fe410a670",
	"campaign":    "6192d293bc6760764d5506cda038af534f5aaf8256556dd8f0ee25975ecc1c23",
}

// checkGolden compares a digest with the recorded one at defaultSeed.
// Other seeds have no recorded digest; their outputs are checked for
// agreement within the run instead.
func checkGolden(workload string, seed uint64, got string) error {
	if seed != defaultSeed {
		return nil
	}
	if want := goldenDigests[workload]; got != want {
		return fmt.Errorf("%s: output digest %s at seed %d, recorded %s", workload, got, seed, want)
	}
	return nil
}
