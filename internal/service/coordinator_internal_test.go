package service

import (
	"strings"
	"testing"

	"matstore/internal/storage"
)

// TestCopartitionErrorNamesMismatch pins the diagnostic text of every
// incompatible-right-side shape, including the shard-count mismatch that a
// single valid manifest cannot produce (both schemes must match its shard
// count) but a federation of differently-generated layouts could.
func TestCopartitionErrorNamesMismatch(t *testing.T) {
	keyed := func(col string, shards int) storage.ShardPlacement {
		return storage.ShardPlacement{Sharded: true, Partition: &storage.PartitionScheme{
			Column: col, Hash: storage.PartitionHashName, Shards: shards,
		}}
	}
	req := JoinRequest{Left: "orders", Right: "customer", LeftKey: "custkey", RightKey: "custkey"}

	cases := []struct {
		name     string
		left     storage.ShardPlacement
		right    storage.ShardPlacement
		wantSubs []string
	}{
		{
			"shard counts differ",
			keyed("custkey", 2), keyed("custkey", 4),
			[]string{"shard counts differ (2 vs 4)", `"orders" is partitioned on "custkey" into 2 shards`},
		},
		{
			"wrong partition column",
			keyed("shipdate", 2), keyed("custkey", 2),
			[]string{`"orders" is partitioned on "shipdate", not its join key "custkey"`},
		},
		{
			"range-sharded right",
			keyed("custkey", 2), storage.ShardPlacement{Sharded: true},
			[]string{`"customer" is range-sharded with no partition key`},
		},
		{
			"replicated left",
			storage.ShardPlacement{}, keyed("nationcode", 2),
			[]string{`"orders" is replicated`, `"customer" is partitioned on "nationcode", not its join key "custkey"`},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			msg := copartitionError(req, tc.left, tc.right).Error()
			for _, sub := range append(tc.wantSubs, "-partition-key orders.custkey,customer.custkey") {
				if !strings.Contains(msg, sub) {
					t.Errorf("error %q\nmissing %q", msg, sub)
				}
			}
		})
	}
}

// Manifest returns the loaded shard manifest.
func (c *Coordinator) Manifest() *storage.ShardManifest { return c.manifest }
