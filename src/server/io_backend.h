// The reactor's transport: a level-triggered epoll loop that does the
// accept4()/read()/writev() calls itself and reports what happened through
// a callback interface, so the HTTP serving core never reads or writes a
// socket on the reactor thread.  See DESIGN.md §14.
//
// The core asks the transport to accept, receive and send; the transport
// calls back when a connection arrives, bytes arrive, a parked send drains
// or fails, or the wake fd fires.  All calls and callbacks happen on the
// owning reactor thread; only GetStats() may be called from other threads.
#ifndef AQUA_SERVER_IO_BACKEND_H_
#define AQUA_SERVER_IO_BACKEND_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace aqua {

/// One reactor's transport.  Lifecycle: Init() once, Poll() in a loop,
/// Shutdown() after the loop exits.  Connections are registered with Add()
/// (returning an opaque per-connection handle), written to with Send(), and
/// released with Close().
class IoBackend {
 public:
  /// What the serving core must handle.  Every method is invoked from
  /// inside Poll(), on the reactor thread.
  class Events {
   public:
    virtual ~Events() = default;
    /// A new connection was accepted; the core Add()s it (or closes fd).
    virtual void OnAccept(int fd) = 0;
    /// Bytes arrived on a connection.  `data` is only valid for the call —
    /// consume or copy it (the HTTP parser copies into its own buffer).
    /// Return false to stop delivery for now: the core either Close()d the
    /// connection, handed it to a worker, or parked a send — in every case
    /// it already told the backend via Close()/SuspendRecv()/Send(), and
    /// the backend must not touch per-connection state after a false
    /// return (the handle may be gone).
    virtual bool OnRecv(void* token, std::string_view data) = 0;
    /// Orderly EOF or a receive error; the core should Close().
    virtual void OnRecvClosed(void* token) = 0;
    /// A Send() that returned kPending finished writing every byte.
    virtual void OnSendDrained(void* token) = 0;
    /// A pending send failed; the connection is dead, the core Close()s.
    virtual void OnSendError(void* token) = 0;
    /// The wake fd fired (worker rearm handoffs, shutdown).
    virtual void OnWake() = 0;
  };

  /// What one Send() call did.
  enum class SendResult {
    /// Every byte was written; the connection is idle again.
    kDone,
    /// Bytes remain parked on the connection; the backend owns finishing
    /// them and will fire OnSendDrained/OnSendError.  The core must not
    /// Send() again on this connection until drained.
    kPending,
    /// The connection is dead (write error); the core should Close().
    kError,
  };

  /// Transport counters, aggregated into /stats and the bench reports so
  /// the zero-copy and syscall claims are measured numbers.  Relaxed
  /// atomics underneath; safe to read from any thread.
  struct Stats {
    /// Every syscall the backend issued (epoll_wait/ctl, accept4, read,
    /// write, writev, eventfd reads, ...).
    std::int64_t syscalls = 0;
    /// Send() calls whose bytes left user space without any intermediate
    /// user-space copy (written straight from the caller's buffers, or
    /// parked in place inside a pinned cache entry).
    std::int64_t zero_copy_sends = 0;
    /// Send() calls that copied an unsent tail of volatile scratch into
    /// backend-owned storage (parked slow-reader tails).
    std::int64_t copied_sends = 0;
    /// Bytes that went through such a copy.
    std::int64_t copied_bytes = 0;
    std::int64_t bytes_sent = 0;
    std::int64_t bytes_received = 0;
  };

  IoBackend() = default;
  ~IoBackend();

  IoBackend(const IoBackend&) = delete;
  IoBackend& operator=(const IoBackend&) = delete;

  /// Takes the reactor's listener and wake eventfd (both owned by the
  /// caller) and creates the epoll instance.
  Status Init(int listen_fd, int wake_fd, Events* events);

  /// Runs one loop iteration: waits up to timeout_ms for readiness and
  /// dispatches it into Events.  Returns a non-OK status only for
  /// unrecoverable transport failures (the reactor exits).
  Status Poll(int timeout_ms);

  /// Registers an accepted connection and arms its receive path.  Returns
  /// an opaque handle for Send/Suspend/Resume/Close, or nullptr on failure
  /// (the caller closes fd itself).
  void* Add(int fd, void* token);

  /// Stops receive delivery for a connection (worker handoff, send
  /// backpressure).  Idempotent.
  void SuspendRecv(void* handle);
  /// Re-arms the receive path after SuspendRecv.  Idempotent.
  void ResumeRecv(void* handle);

  /// Writes head then body on the connection, never blocking the reactor:
  /// whatever the socket cannot take now is parked and finished when it
  /// becomes writable (kPending).  `pin`, when non-null, keeps the
  /// underlying buffer alive until the send completes — the cached-response
  /// path passes the cache entry so a parked tail stays in place with no
  /// copy even if the epoch advances mid-send.  Without a pin the buffers
  /// are treated as volatile (reactor scratch): any unsent tail is copied
  /// into backend-owned storage before Send returns.
  SendResult Send(void* handle, std::string_view head, std::string_view body,
                  const std::shared_ptr<const std::string>* pin);

  /// True while a kPending send has not yet drained.
  bool HasPendingSend(const void* handle) const;

  /// Stops accepting new connections (graceful drain).
  void StopAccepting();

  /// Closes the connection's fd and releases the handle.  No Events
  /// callback fires for this connection afterwards.  The token may be
  /// freed by the caller immediately after this returns.
  void Close(void* handle);

  /// Releases the epoll instance (after the reactor loop exited).
  void Shutdown();

  Stats GetStats() const;

 private:
  struct Conn;

  void CountSyscall() { syscalls_.fetch_add(1, std::memory_order_relaxed); }
  bool SyncMask(Conn* conn);
  void HandleAccept();
  void HandleWake();
  void HandleReadable(Conn* conn);
  void ParkTail(Conn* conn, std::string_view head, std::string_view body,
                std::size_t written,
                const std::shared_ptr<const std::string>* pin);
  void FlushParked(Conn* conn);
  void ReapClosed();

  int epoll_fd_ = -1;
  int listen_fd_ = -1;
  int wake_fd_ = -1;
  bool accepting_ = true;
  Events* events_ = nullptr;
  // Distinct addresses used as epoll_event.data.ptr sentinels.
  int listen_tag_ = 0;
  int wake_tag_ = 0;
  std::vector<Conn*> closed_;

  std::atomic<std::int64_t> syscalls_{0};
  std::atomic<std::int64_t> zero_copy_sends_{0};
  std::atomic<std::int64_t> copied_sends_{0};
  std::atomic<std::int64_t> copied_bytes_{0};
  std::atomic<std::int64_t> bytes_sent_{0};
  std::atomic<std::int64_t> bytes_received_{0};
};

}  // namespace aqua

#endif  // AQUA_SERVER_IO_BACKEND_H_
