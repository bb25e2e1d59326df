//go:build !unix

package objstore

import "os"

// readFile is os.ReadFile where the unix reader does not build.
func readFile(path string) ([]byte, error) { return os.ReadFile(path) }
