//go:build !xrdmapoison

package xrdma

// poisonPools is false in normal builds: the poison branches compile away.
// See pool_poison.go.
const poisonPools = false
