// Package structaware is a Go implementation of structure-aware VarOpt
// sampling, reproducing Cohen, Cormode, Duffield, "Structure-Aware Sampling:
// Flexible and Accurate Summarization" (VLDB 2011).
//
// # Overview
//
// Given a large multiset of weighted keys living in a structured domain
// (an order, a hierarchy such as IP prefixes, or a multi-dimensional product
// of these), the library draws a fixed-size VarOpt sample whose keys are
// spread so evenly across the structure that every structural range R
// contains within ±∆ of its expected number of sample points — ∆ < 1 for
// hierarchies, ∆ < 2 for arbitrary intervals, and O(√(d·s^((d-1)/d))) error
// for d-dimensional boxes — while remaining a true VarOpt sample: exact size
// s, unbiased Horvitz–Thompson estimates for arbitrary subset sums, and
// exponential tail bounds.
//
// # Quick start
//
//	axes := []structaware.Axis{structaware.BitTrieAxis(32), structaware.BitTrieAxis(32)}
//	ds, err := structaware.NewDataset(axes, points, weights)
//	sum, err := structaware.Build(ds, structaware.Config{Size: 1000})
//	estimate := sum.EstimateRange(structaware.Range{{Lo: a, Hi: b}, {Lo: c, Hi: d}})
//
// For query-heavy serving, compile the summary once with Summary.Index: the
// resulting IndexedSummary answers the same queries bit-for-bit in
// O(log s + answer + s/64) instead of O(s), and is immutable, so goroutines share
// it without locks. cmd/sasserve builds an HTTP daemon on exactly this:
// load serialized summaries, index them, serve JSON estimates.
//
// See examples/ for runnable scenarios (network flows, trouble tickets,
// out-of-core two-pass construction) and DESIGN.md for the system inventory.
//
// The facade re-exports the library's public surface; the implementation
// lives under internal/ (internal/core orchestrates, internal/aware,
// internal/kd, internal/twopass implement the paper's algorithms,
// internal/queryidx compiles the serving index, and internal/wavelet,
// internal/qdigest, internal/sketch provide the baseline summaries used by
// the experiment harness).
package structaware

import (
	"io"

	"structaware/internal/core"
	"structaware/internal/hierarchy"
	"structaware/internal/structure"
)

// Axis describes one dimension of the key domain.
type Axis = structure.Axis

// Interval is an inclusive coordinate interval.
type Interval = structure.Interval

// Range is an axis-parallel box (one Interval per dimension).
type Range = structure.Range

// Query is a union of disjoint boxes.
type Query = structure.Query

// Dataset is a columnar multiset of weighted multi-dimensional keys.
type Dataset = structure.Dataset

// Hierarchy is an explicit rooted tree over a key domain.
type Hierarchy = hierarchy.Tree

// HierarchyBuilder incrementally constructs a Hierarchy.
type HierarchyBuilder = hierarchy.Builder

// Summary is a queryable sample-based summary. It is self-contained: it can
// outlive the data, be serialized (MarshalBinary/WriteTo), shipped, and
// merged with summaries of disjoint populations (MergeSummaries). For
// query-heavy serving, compile it once with Summary.Index.
type Summary = core.Summary

// IndexedSummary is a Summary compiled for serving (Summary.Index): an
// immutable index over the sampled keys that answers EstimateRange,
// EstimateQuery, EstimateTotal, and RepresentativeKeys in
// O(log s + answer + s/64) instead of the linear scan's O(s), returning bit-for-bit
// the same values. Safe for concurrent use across goroutines; cmd/sasserve
// serves HTTP traffic from one shared IndexedSummary per loaded summary.
type IndexedSummary = core.IndexedSummary

// Builder is the streaming construction API: Push weighted keys one at a
// time and Finalize into a Summary, with working memory bounded by
// Config.Buffer regardless of stream length. Snapshot publishes the
// stream's current Summary without consuming the Builder — the write
// buffer of a live serving system (cmd/sasserve's live summaries). See
// NewBuilder.
type Builder = core.Builder

// Config configures Build, SampleParallel, and NewBuilder.
type Config = core.Config

// Method selects the sampling scheme.
type Method = core.Method

// Sampling methods. Aware (the default) is the paper's structure-aware
// main-memory scheme; AwareTwoPass is the I/O-efficient variant; Oblivious
// and Poisson are the classic baselines; Systematic is the non-VarOpt
// ablation.
const (
	Aware        = core.Aware
	AwareTwoPass = core.AwareTwoPass
	Oblivious    = core.Oblivious
	Poisson      = core.Poisson
	Systematic   = core.Systematic
)

// OrderedAxis returns an ordered axis over [0, 2^bits).
func OrderedAxis(bits int) Axis { return structure.OrderedAxis(bits) }

// BitTrieAxis returns a binary-hierarchy axis over [0, 2^bits): the natural
// structure of IP addresses, where ranges are prefixes.
func BitTrieAxis(bits int) Axis { return structure.BitTrieAxis(bits) }

// ExplicitAxis returns an axis backed by an explicit hierarchy; coordinates
// are DFS-linearized leaf positions (see Hierarchy.LeafPosition).
func ExplicitAxis(t *Hierarchy) Axis { return structure.ExplicitAxis(t) }

// NewHierarchyBuilder returns a builder with the root (node 0) created.
func NewHierarchyBuilder() *HierarchyBuilder { return hierarchy.NewBuilder() }

// NewDataset validates and builds a dataset from row-major points:
// points[i][d] is item i's coordinate on axis d. Duplicate keys are merged
// by summing weights, in input order; keys keep the order of their first
// occurrence. Weights whose total is not finite are refused.
func NewDataset(axes []Axis, points [][]uint64, weights []float64) (*Dataset, error) {
	return structure.NewDataset(axes, points, weights)
}

// Build draws a sample summary from the dataset according to cfg.
func Build(ds *Dataset, cfg Config) (*Summary, error) {
	return core.Build(ds, cfg)
}

// SampleParallel draws a sample summary with a sharded worker pool: the
// dataset is partitioned across `workers` goroutines, each shard draws an
// independent VarOpt sample, and the shard samples are merged into a single
// exact-size sample (with the structure-aware closing pass re-run on the
// merged candidates) whose Horvitz–Thompson estimates remain unbiased.
//
// workers <= 0 uses all available CPUs; workers == 1 is identical to Build.
// Methods without a parallel pipeline (Poisson, AwareTwoPass, Systematic)
// fall back to the serial Build path. Runs are deterministic in
// (cfg, workers).
func SampleParallel(ds *Dataset, cfg Config, workers int) (*Summary, error) {
	return core.SampleParallel(ds, cfg, workers)
}

// NewBuilder creates a streaming Builder over the given key domain: push
// weighted keys from any source (a file, a socket, stdin, one shard of a
// partitioned population) and Finalize into a Summary without materializing
// a Dataset. Ingestion runs through a mergeable stream VarOpt reservoir of
// Config.Buffer keys (default 5×Size), and finalization uses the same
// structure-aware closing pass as Build, so the resulting Summary has the
// same guarantees over the retained candidates. Only the Aware and
// Oblivious methods stream.
//
// Push is allocation-free in steady state; columnar callers should prefer
// Builder.PushBatch(coords, weights), which ingests whole columns (e.g. a
// Dataset's Coords/Weights) without materializing a point per key and emits
// byte-identical summaries.
func NewBuilder(axes []Axis, cfg Config) (*Builder, error) {
	return core.NewBuilder(axes, cfg)
}

// MergeSummaries combines summaries built independently over pairwise
// disjoint populations — by separate Builders, processes, or machines, with
// serialization in between — into one summary of size exactly
// min(size, union size) whose Horvitz–Thompson estimates remain unbiased.
// Every input must have been built with target size >= size and describe
// the same key domain.
func MergeSummaries(size int, seed uint64, summaries ...*Summary) (*Summary, error) {
	return core.MergeSummaries(size, seed, summaries...)
}

// ReadSummary deserializes a summary written by Summary.WriteTo or
// Summary.MarshalBinary, rejecting other format versions.
func ReadSummary(r io.Reader) (*Summary, error) {
	return core.ReadSummary(r)
}
