package core

// SetScanShardMin sets Scan's sharding threshold for a test and returns a
// func that restores it.
func SetScanShardMin(n int) (restore func()) {
	old := scanShardMin
	scanShardMin = n
	return func() { scanShardMin = old }
}
