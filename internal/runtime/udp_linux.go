//go:build linux && (amd64 || arm64)

package runtime

import (
	"errors"
	"net"
	"sync"
	"syscall"
	"unsafe"
)

// sendmmsg(2) batch transmission: one syscall moves the whole frame
// queue into the kernel. The struct layouts are defined here against the
// Linux ABI (struct mmsghdr = struct msghdr + unsigned int msg_len plus
// tail padding) so no external syscall package is needed.

// mmsghdr mirrors Linux's struct mmsghdr.
type mmsghdr struct {
	hdr syscall.Msghdr
	n   uint32
	_   [4]byte
}

// mmsgScratch is the reusable header/iovec/sockaddr arrays of one
// sendmmsg call; pooled because batches arrive on many goroutines.
type mmsgScratch struct {
	msgs []mmsghdr
	iovs []syscall.Iovec
	sas  []syscall.RawSockaddrInet4
}

var mmsgPool = sync.Pool{New: func() any { return new(mmsgScratch) }}

// sendBatchOS transmits every frame on one socket, batching them into as
// few sendmmsg calls as the kernel accepts. A frame the kernel refuses
// (sendmmsg fails only on the first message it was handed) is skipped and
// its error joined into the result; the frames behind it still go out.
// Falls back to WriteToUDP when the raw descriptor is unavailable (exotic
// conn types in tests).
func sendBatchOS(conn *net.UDPConn, frames [][]byte, addrs []*net.UDPAddr) error {
	rc, err := conn.SyscallConn()
	if err != nil {
		return sendBatchLoop(conn, frames, addrs)
	}
	sc := mmsgPool.Get().(*mmsgScratch)
	defer mmsgPool.Put(sc)
	n := len(frames)
	if cap(sc.msgs) < n {
		sc.msgs = make([]mmsghdr, n)
		sc.iovs = make([]syscall.Iovec, n)
		sc.sas = make([]syscall.RawSockaddrInet4, n)
	}
	sc.msgs = sc.msgs[:n]
	sc.iovs = sc.iovs[:n]
	sc.sas = sc.sas[:n]
	for i := range frames {
		ip4 := addrs[i].IP.To4()
		if ip4 == nil {
			return sendBatchLoop(conn, frames, addrs) // udp4-only transport; defensive
		}
		sa := &sc.sas[i]
		sa.Family = syscall.AF_INET
		// sin_port is big-endian on the wire.
		sa.Port = uint16(addrs[i].Port>>8) | uint16(addrs[i].Port&0xff)<<8
		copy(sa.Addr[:], ip4)
		iov := &sc.iovs[i]
		iov.Base = &frames[i][0]
		iov.SetLen(len(frames[i]))
		m := &sc.msgs[i]
		m.hdr = syscall.Msghdr{
			Name:    (*byte)(unsafe.Pointer(sa)),
			Namelen: uint32(unsafe.Sizeof(*sa)),
			Iov:     iov,
			Iovlen:  1,
		}
		m.n = 0
	}
	sent := 0
	var errs []error
	err = rc.Write(func(fd uintptr) bool {
		for sent < n {
			r, _, errno := syscall.Syscall6(sysSENDMMSG, fd,
				uintptr(unsafe.Pointer(&sc.msgs[sent])), uintptr(n-sent), 0, 0, 0)
			switch errno {
			case 0:
				sent += int(r)
			case syscall.EAGAIN:
				return false // wait for the netpoller, then retry
			case syscall.EINTR:
				continue
			default:
				errs = append(errs, errno)
				sent++
			}
		}
		return true
	})
	if err != nil {
		return err
	}
	return errors.Join(errs...)
}
