//go:build !unix

package shmfab

import (
	"errors"
	"os"
)

// mmapSupported reports whether this build can map shared segments (and
// make doorbell FIFOs) at all.
const mmapSupported = false

var errUnsupported = errors.New("shmfab: shared-memory segments are not supported on this platform")

func mapCreate(path string, size int) ([]byte, error) { return nil, errUnsupported }
func mapOpen(path string) ([]byte, error)             { return nil, errUnsupported }
func mapClose(mem []byte) error                       { return nil }

func bellCreate(path string) (*os.File, error) { return nil, errUnsupported }
func bellOpen(path string) (*os.File, error)   { return nil, errUnsupported }
