package main

// golden holds the digests the default seed produces: the trained
// networks and DP teacher samples of offline_cold's configurations, and
// the sweep's aggregate run digest, which every workload shares. A change that moves one changed what
// the program computes, not only how fast.
var golden = struct {
	offlineNets, offlineSamples, sweep string
}{
	offlineNets:    "df9cd293135aa8e0ad50f433f6ae0c5303afb6533e7d9e7774845835de772b79",
	offlineSamples: "9c81a5d3e12743585f36014bc4b7cc8aebae74027253dd3205097f6c3618ae57",
	sweep:          "cdca947d5515c769490b2826f7fcf603ee1e86ce39fd93a1363c443a64bc595c",
}
