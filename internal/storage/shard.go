package storage

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"matstore/internal/positions"
)

// Shard-aware layout: a sharded database root holds one full projection
// directory tree per shard (shard-000, shard-001, ...) plus a shards.json
// manifest describing how each projection's global row space maps onto the
// shards. A shard directory is an ordinary database directory — every
// existing open/serve path works on it unchanged — and the manifest is the
// per-shard metadata a scatter-gather coordinator loads at startup so
// planning (routing, pruning, position remapping) never touches shard data.
//
// Projections come in three placements:
//
//   - range-sharded: the rows are horizontally partitioned into
//     chunk-aligned global row ranges, shard k holding rows
//     [Ranges[k].Start, Ranges[k].End). Positions inside a shard are
//     shard-local (they start at 0); Ranges[k].Start is the offset that
//     remaps them into the global position space.
//   - key-partitioned: the rows are hash-partitioned on one column, shard k
//     holding exactly the rows whose key hashes to k — in global row order
//     (each shard is the global-order subsequence of its rows). Every
//     key-partitioned shard projection carries a hidden RowIDColumn with
//     each row's global row index, which is how a coordinator restores the
//     global interleaving of shard partials. Two projections partitioned on
//     their join keys under the same scheme are co-partitioned: the join is
//     shard-local with no inner replication.
//   - replicated: every shard holds the full projection (the co-located
//     build side of scatter-gather joins). Queries over a replicated
//     projection route to a single shard.

// ShardManifestFile names the manifest at a sharded database root.
const ShardManifestFile = "shards.json"

// PartitionHashName identifies the hash scheme of key-partitioned layouts:
// operators.HashKey (the 64-bit MurmurHash3 finalizer) reduced modulo the
// shard count. Recording it per projection lets a coordinator refuse to
// treat projections partitioned under different schemes as co-partitioned.
const PartitionHashName = "murmur3-fin64"

// RowIDColumn names the hidden global-row-id column every key-partitioned
// shard projection carries as its last column: value = the row's global row
// index in the unsharded projection. Coordinators merge shard partials back
// into global row order by this column; it is never part of a user schema.
const RowIDColumn = "_rowid"

// PartitionScheme describes how a key-partitioned projection's rows map to
// shards: row r lives on shard Hash(key column value at r) mod Shards.
type PartitionScheme struct {
	// Column is the partition key column.
	Column string `json:"column"`
	// Hash names the hash scheme (PartitionHashName).
	Hash string `json:"hash"`
	// Shards is the partition count the layout was generated with.
	Shards int `json:"shards"`
}

// ShardPlacement describes one projection's distribution over the shards.
type ShardPlacement struct {
	// Sharded reports horizontal partitioning (range- or key-based); false
	// means the projection is fully replicated in every shard.
	Sharded bool `json:"sharded"`
	// Ranges[k] is shard k's global row range (range-sharded projections
	// only; empty ranges mean the shard holds no rows of this projection).
	Ranges []positions.Range `json:"ranges,omitempty"`
	// Partition is the hash-partitioning scheme of a key-partitioned
	// projection (nil for range-sharded and replicated placements).
	Partition *PartitionScheme `json:"partition,omitempty"`
}

// KeyPartitioned reports whether this placement hash-partitions rows on a
// key column.
func (p ShardPlacement) KeyPartitioned() bool { return p.Sharded && p.Partition != nil }

// ShardManifest is the coordinator-held metadata of a sharded database.
type ShardManifest struct {
	// NumShards is the shard count; Dirs[k] is shard k's directory name
	// relative to the root.
	NumShards int      `json:"num_shards"`
	Dirs      []string `json:"dirs"`
	// Projections maps projection name to its placement.
	Projections map[string]ShardPlacement `json:"projections"`
}

// ShardDirName returns the canonical directory name of shard k.
func ShardDirName(k int) string { return fmt.Sprintf("shard-%03d", k) }

// WriteShardManifest writes the manifest at the database root.
func WriteShardManifest(root string, m *ShardManifest) error {
	raw, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(root, ShardManifestFile), raw, 0o644)
}

// LoadShardManifest reads the manifest at a sharded database root.
func LoadShardManifest(root string) (*ShardManifest, error) {
	raw, err := os.ReadFile(filepath.Join(root, ShardManifestFile))
	if err != nil {
		return nil, err
	}
	var m ShardManifest
	if err := json.Unmarshal(raw, &m); err != nil {
		return nil, fmt.Errorf("%s: %w", filepath.Join(root, ShardManifestFile), err)
	}
	if m.NumShards != len(m.Dirs) {
		return nil, fmt.Errorf("storage: manifest has %d shards but %d dirs", m.NumShards, len(m.Dirs))
	}
	for name, pl := range m.Projections {
		switch {
		case pl.Partition != nil:
			if !pl.Sharded {
				return nil, fmt.Errorf("storage: projection %s has a partition scheme but is not sharded", name)
			}
			if pl.Partition.Column == "" {
				return nil, fmt.Errorf("storage: projection %s partition scheme names no column", name)
			}
			if pl.Partition.Shards != m.NumShards {
				return nil, fmt.Errorf("storage: projection %s partitioned into %d shards, manifest has %d",
					name, pl.Partition.Shards, m.NumShards)
			}
		case pl.Sharded && len(pl.Ranges) != m.NumShards:
			return nil, fmt.Errorf("storage: projection %s has %d ranges for %d shards", name, len(pl.Ranges), m.NumShards)
		}
	}
	return &m, nil
}

// Placement returns the named projection's placement.
func (m *ShardManifest) Placement(name string) (ShardPlacement, bool) {
	pl, ok := m.Projections[name]
	return pl, ok
}

// ShardRanges carves the global row space [0, n) into shards contiguous
// row ranges aligned to align-position boundaries (the executor chunk size,
// so shard-local positions stay block- and chunk-local). The ideal even
// split rounds UP to the alignment, so early shards absorb the rounding and
// trailing shards may be empty for tiny tables; when the table is too small
// for even one aligned row per shard the alignment degrades in powers of
// two (never below 64, the position-bitmap word size) so small datasets
// still fan out.
func ShardRanges(n int64, shards int, align int64) []positions.Range {
	if shards < 1 {
		shards = 1
	}
	if align < 64 {
		align = 64
	}
	// Degrade alignment until at least (shards-1) shards get rows, or the
	// word-size floor is hit.
	for align > 64 && n < align*int64(shards) {
		align /= 2
	}
	per := (n + int64(shards) - 1) / int64(shards)
	per = (per + align - 1) / align * align
	if per < align {
		per = align
	}
	out := make([]positions.Range, shards)
	start := int64(0)
	for k := 0; k < shards; k++ {
		end := start + per
		if end > n {
			end = n
		}
		if start > n {
			start = n
		}
		out[k] = positions.Range{Start: start, End: end}
		start = end
	}
	return out
}

// ReadProjectionMeta reads a projection directory's catalog record without
// opening its column files — the coordinator's startup path: per-shard
// min/max, tuple counts and encodings for routing and pruning, no shard
// data touched.
func ReadProjectionMeta(dir string) (ProjectionMeta, error) {
	raw, err := os.ReadFile(filepath.Join(dir, metaFile))
	if err != nil {
		return ProjectionMeta{}, err
	}
	var meta ProjectionMeta
	if err := json.Unmarshal(raw, &meta); err != nil {
		return ProjectionMeta{}, fmt.Errorf("%s: %w", dir, err)
	}
	return meta, nil
}

// ListProjectionDirs lists the projection directory names under a database
// directory (any subdirectory holding a meta.json), sorted.
func ListProjectionDirs(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		if _, err := os.Stat(filepath.Join(dir, e.Name(), metaFile)); err != nil {
			continue
		}
		names = append(names, e.Name())
	}
	return names, nil
}
