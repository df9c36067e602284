// Command refsim — see dew/internal/cli.RefSim for the implementation
// and flag documentation. One configuration per run, Dinero-style; with
// -shards ≥ 2 (0 = auto) the replay runs the sharded reference engine
// over set-substreams partitioned from the decoded stream.
package main

import "dew/internal/cli"

func main() { cli.Main("refsim", cli.RefSim) }
