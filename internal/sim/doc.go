// Package sim provides a deterministic, process-oriented discrete-event
// simulation kernel.
//
// The kernel advances a virtual clock over an event calendar. Simulation
// processes are runtime coroutines (iter.Pull) that the scheduler
// resumes one at a time: at any instant either the scheduler or a single
// process is running, which makes execution fully deterministic for a
// fixed sequence of API calls.
//
// Building blocks:
//
//   - Env: the event calendar and clock.
//   - Proc: a simulation process; blocks with Sleep and Wait.
//   - Event: a one-shot completion that carries a value.
//   - PSLink: a processor-sharing bandwidth resource (bus, link, port).
//   - Resource: a counted FIFO resource (server pool).
//
// All time values are float64 seconds of virtual time.
package sim
