// Package core implements SmartDS itself: the middle-tier-centric
// SmartNIC with the application-aware message split (AAMS) mechanism
// (paper §4).
//
// A Device models one SmartDS card: a PCIe endpoint, a shared HBM
// device memory, and one extended-RoCE Instance per networking port.
// Each Instance couples a transport stack with the two AAMS modules:
//
//   - Split: consumes recv descriptors (host buffer + device buffer);
//     when an RDMA message arrives, the first h_size bytes are DMA-
//     written across PCIe into host memory and the remainder goes to
//     the card's device memory — a single RDMA message spanning both
//     memories.
//   - Assemble: consumes send descriptors; gathers h_size bytes from
//     host memory over PCIe and d_size bytes from device memory into
//     one outgoing RDMA message.
//
// Each Instance also instantiates a hardware LZ4 engine invokable
// through DevFunc, whose caller binds the functional encode the
// engine runs when it first needs the output size. The package exposes
// the Table 2 API: HostAlloc, DevAlloc, OpenRoCEInstance, DevMixedRecv,
// DevMixedSend, DevFunc (dev_func), and Poll, so the example in the
// paper's Listing 1 translates line for line (see examples/writepath).
package core
