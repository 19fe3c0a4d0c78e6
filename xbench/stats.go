package main

import (
	"encoding/binary"
	"hash/fnv"
	"reflect"
	"slices"
)

// median of xs (xs is reordered).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile is the linearly interpolated q-quantile of xs (reordered).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	slices.Sort(xs)
	pos := q * float64(len(xs)-1)
	i := int(pos)
	if i+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	return xs[i] + (pos-float64(i))*(xs[i+1]-xs[i])
}

// rankPct is the nearest-rank p-th percentile of sorted xs.
func rankPct(sorted []int64, p float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	k := int(p/100*float64(len(sorted))+0.999999) - 1
	k = max(0, min(k, len(sorted)-1))
	return sorted[k]
}

// addInts adds every integer field of *src into *dst (same struct type).
// Counter snapshots from many nodes and channels are summed this way.
func addInts(dst, src any) {
	d := reflect.ValueOf(dst).Elem()
	s := reflect.ValueOf(src).Elem()
	for i := 0; i < d.NumField(); i++ {
		switch f := d.Field(i); f.Kind() {
		case reflect.Int, reflect.Int64:
			f.SetInt(f.Int() + s.Field(i).Int())
		case reflect.Uint64:
			f.SetUint(f.Uint() + s.Field(i).Uint())
		}
	}
}

// subInts returns a copy of *a minus *b, field by field (integer fields).
func subInts[T any](a, b T) T {
	out := a
	d := reflect.ValueOf(&out).Elem()
	s := reflect.ValueOf(&b).Elem()
	for i := 0; i < d.NumField(); i++ {
		switch f := d.Field(i); f.Kind() {
		case reflect.Int, reflect.Int64:
			f.SetInt(f.Int() - s.Field(i).Int())
		case reflect.Uint64:
			f.SetUint(f.Uint() - s.Field(i).Uint())
		}
	}
	return out
}

// digest folds the simulated outcome into one value: the exact latency
// histogram (sorted samples) and the simulated counters. Two runs of one
// seed must produce the same digest.
func digest(sortedLat []int64, counters ...any) uint64 {
	h := fnv.New64a()
	var b [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	put(uint64(len(sortedLat)))
	for _, v := range sortedLat {
		put(uint64(v))
	}
	for _, c := range counters {
		v := reflect.ValueOf(c)
		if v.Kind() != reflect.Struct {
			put(uint64(v.Int()))
			continue
		}
		for i := 0; i < v.NumField(); i++ {
			switch f := v.Field(i); f.Kind() {
			case reflect.Int, reflect.Int64:
				put(uint64(f.Int()))
			case reflect.Uint64:
				put(f.Uint())
			}
		}
	}
	return h.Sum64()
}
