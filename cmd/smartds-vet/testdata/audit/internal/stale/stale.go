// Package stale carries rotten waivers for the waiver-audit tests:
// one names an analyzer that does not exist, the other names a real
// analyzer but suppresses nothing.
package stale

//detcheck:nosuchkey vestigial key from a deleted analyzer
var x = 1

//detcheck:wallclock nothing on this line touches the clock
var y = 2
