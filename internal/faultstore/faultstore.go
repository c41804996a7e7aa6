// Package faultstore is the sharded, time-partitioned binary store for
// extracted fault datasets — the fleet-scale successor to reading one
// flat text log per node. Text logs stay the interchange format; this
// store is where repeated analytical queries go.
//
// # Layout
//
// A store directory holds segment files plus one MANIFEST. Each segment
// belongs to exactly one (shard, time window) cell: the shard is a stable
// hash of the fault's NodeID, the window is its first-observation time
// divided into fixed-length partitions. Inside a segment, faults and
// sessions are encoded in a fixed-layout little-endian columnar codec —
// one contiguous array per record field — so decoding is a handful of
// straight array sweeps instead of per-record text parsing (see
// encode.go/decode.go; DESIGN.md §10 has the byte-level diagram).
//
// The MANIFEST is the store's index: for every segment it records the
// (shard, window) cell, record counts, the min/max observation time and
// the exact set of nodes present. Queries prune on it — a node-subset or
// time-range query opens only the segments whose index entry can match,
// before any segment I/O happens.
//
// # Semantics
//
//   - Ingest streams a text log directory through the §II-C replay
//     pipeline (logstore.Parts), cuts each node's sorted faults and
//     sessions into runs by (shard, window) cell, and builds each cell's
//     segment, the merge of its runs, on the worker pool. Ingest is
//     additive: a second Ingest into the same store appends a new
//     generation of segments.
//   - Events replays the store as the standard stream contract — stats
//     prologue, faults in extract.Compare order, sessions in
//     eventlog.CompareSessions order — by k-way merging the per-segment
//     streams (each sorted at write time) through internal/kway, exactly
//     like the campaign engine and the text-log loader.
//   - Export renders the store back to per-node text logs via
//     logstore.Export. For a store ingested from a canonically exported
//     directory the round trip is byte-identical.
//   - Compact rewrites the store: fault runs that one ingest batch
//     boundary split in two (same node, address and corruption pattern,
//     within the §II-C collapse gap) are re-collapsed, and every
//     (shard, window) cell ends up with exactly one segment again, built
//     on the pool like Ingest's.
//
// Manifest and segment reads go through iofault.ReadFile, so store
// queries share one descriptor ceiling with the log layer, and a
// transient error is retried before a strict query fails or a degraded
// one skips the segment.
package faultstore

import (
	"fmt"
	"time"

	"unprotected/internal/cluster"
	"unprotected/internal/timebase"
)

const (
	// DefaultShards is the default number of node-hash shards. Wide
	// enough that a node-subset query skips most of the store, narrow
	// enough that a 13-month study does not shatter into confetti.
	DefaultShards = 8

	// DefaultWindow is the default time-partition length. Thirteen study
	// months make ~14 windows, so a month-scale time-range query touches
	// a couple of windows instead of the whole history.
	DefaultWindow = 30 * 24 * time.Hour

	// ManifestName is the index file inside a store directory.
	ManifestName = "MANIFEST"
)

// shardOf maps a node to its shard with FNV-1a over the (blade, SoC)
// pair. The hash is part of the on-disk format: it must stay stable
// across releases or existing manifests would lie about segment
// membership.
func shardOf(id cluster.NodeID, shards int) uint32 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, v := range [2]uint64{uint64(int64(id.Blade)), uint64(int64(id.SoC))} {
		for i := 0; i < 8; i++ {
			h ^= uint64(byte(v >> (8 * i)))
			h *= prime64
		}
	}
	return uint32(h % uint64(shards))
}

// windowOf maps an observation time to its window index (floor division,
// so pre-epoch times land in negative windows instead of sharing window
// zero).
func windowOf(t timebase.T, windowSeconds int64) int64 {
	v := int64(t)
	w := v / windowSeconds
	if v%windowSeconds != 0 && v < 0 {
		w--
	}
	return w
}

// segmentName renders a segment file name. Generations distinguish the
// segments successive Ingest calls add to one (shard, window) cell; the
// manifest is the source of truth, the name only has to be unique and
// debuggable.
func segmentName(shard uint32, window int64, gen uint32) string {
	return fmt.Sprintf("seg-%03d-w%d-g%06d.seg", shard, window, gen)
}
