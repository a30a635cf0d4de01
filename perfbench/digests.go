package main

// committedDigests are the SHA-256 digests of each workload's simulated
// outputs at defaultSeed, full scale and quick scale. A change that moves
// any simulated figure moves its digest; update these only for a change
// that moves simulated results on purpose, and say why.
var committedDigests = map[string][2]string{
	// name: {full scale, quick scale}
	"kv_ycsb":     {"0da2df83e721a5f57ac534aa8d04043a598513d88eb7a529a26fc0f24b89a6f0", "194616770f46031d5ab74e0f69685a37beb9ea04d8472d36b4a4d208e127d2b7"},
	"paper_sweep": {"ca555057ec670765fd28bddf328ed03e276389faa471bc844e28327504c48016", "967cc302732886c44a03fee5ca62d25d8d426218ccab41e8c140df510fcf781f"},
}

func committedDigest(name string, quick bool) (string, bool) {
	d, ok := committedDigests[name]
	i := 0
	if quick {
		i = 1
	}
	return d[i], ok && d[i] != ""
}
