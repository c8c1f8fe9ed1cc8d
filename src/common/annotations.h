// Static concurrency verification: Clang thread-safety capability macros
// plus an annotated Mutex/MutexLock/CondVar wrapper over the standard
// primitives.
//
// Under Clang the macros expand to the thread-safety attributes, and the
// lint preset compiles with -Wthread-safety -Werror, so "which mutex guards
// this member" and "which functions must (not) hold it" are checked at
// compile time — a data race on an annotated member is a build break, not a
// TSan report that depends on test interleavings. Under GCC the macros
// expand to nothing and the wrappers behave exactly like std::mutex /
// std::lock_guard, so non-Clang builds are unaffected.
//
// Conventions (enforced by `tools/lint.py --mutex-annotations`):
//   - Use tycos::Mutex / tycos::MutexLock / tycos::CondVar everywhere in
//     src/; bare std::mutex / std::lock_guard / std::unique_lock /
//     std::condition_variable are banned outside this header. (std::atomic,
//     std::once_flag/call_once, and std::thread remain fine — the analysis
//     covers lock-guarded state, not lock-free code.)
//   - Every member a mutex guards carries TYCOS_GUARDED_BY(mu_).
//   - Functions that take the lock internally declare TYCOS_EXCLUDES(mu_);
//     functions that demand it held declare TYCOS_REQUIRES(mu_).
//   - Condition waits are explicit `while (!pred) cv_.Wait(mu_);` loops —
//     the analysis cannot see a lock held across a predicate-lambda
//     boundary, and the explicit form is what it verifies.
//
// See DESIGN.md "Static concurrency verification & fuzzing".

#ifndef TYCOS_COMMON_ANNOTATIONS_H_
#define TYCOS_COMMON_ANNOTATIONS_H_

#include <condition_variable>
#include <mutex>

#if defined(__clang__)
#define TYCOS_THREAD_ANNOTATION(x) __attribute__((x))
#else
#define TYCOS_THREAD_ANNOTATION(x)  // no-op outside Clang
#endif

// A type that is a lockable capability ("mutex").
#define TYCOS_CAPABILITY(x) TYCOS_THREAD_ANNOTATION(capability(x))
// An RAII type that acquires a capability for its lifetime.
#define TYCOS_SCOPED_CAPABILITY TYCOS_THREAD_ANNOTATION(scoped_lockable)
// Data member readable/writable only while `x` is held.
#define TYCOS_GUARDED_BY(x) TYCOS_THREAD_ANNOTATION(guarded_by(x))
// Pointer member whose pointee is guarded by `x` (the pointer itself isn't).
#define TYCOS_PT_GUARDED_BY(x) TYCOS_THREAD_ANNOTATION(pt_guarded_by(x))
// Function that must be called with the capability held.
#define TYCOS_REQUIRES(...) \
  TYCOS_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))
// Function that acquires / releases the capability itself.
#define TYCOS_ACQUIRE(...) \
  TYCOS_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))
#define TYCOS_RELEASE(...) \
  TYCOS_THREAD_ANNOTATION(release_capability(__VA_ARGS__))
// Function that must be called with the capability NOT held (it takes the
// lock internally; calling it under the lock would self-deadlock).
#define TYCOS_EXCLUDES(...) TYCOS_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))
// Function returning a reference to the capability guarding its result.
#define TYCOS_RETURN_CAPABILITY(x) TYCOS_THREAD_ANNOTATION(lock_returned(x))
// Escape hatch for code the analysis cannot model; every use needs a
// comment saying why.
#define TYCOS_NO_THREAD_SAFETY_ANALYSIS \
  TYCOS_THREAD_ANNOTATION(no_thread_safety_analysis)

namespace tycos {

class CondVar;

// std::mutex with the lockable-capability annotation. Prefer MutexLock for
// scoped acquisition; Lock()/Unlock() exist for the rare manual site.
class TYCOS_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() TYCOS_ACQUIRE() { mu_.lock(); }
  void Unlock() TYCOS_RELEASE() { mu_.unlock(); }

 private:
  friend class CondVar;
  std::mutex mu_;
};

// Scoped lock (std::lock_guard shape) that tells the analysis the mutex is
// held for the enclosing scope.
class TYCOS_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex* mu) TYCOS_ACQUIRE(mu) : mu_(mu) { mu_->Lock(); }
  ~MutexLock() TYCOS_RELEASE() { mu_->Unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex* const mu_;
};

// Condition variable that waits on a tycos::Mutex directly. Wait REQUIRES
// the mutex held (it releases and reacquires it internally, which the
// analysis models as "held before, held after"). Always wrap waits in an
// explicit predicate loop.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  void Wait(Mutex& mu) TYCOS_REQUIRES(mu) { cv_.wait(mu.mu_); }

  void NotifyOne() { cv_.notify_one(); }
  void NotifyAll() { cv_.notify_all(); }

 private:
  // _any variant: it unlocks/relocks the raw std::mutex itself, so no
  // std::unique_lock (which the analysis cannot track) is ever needed.
  std::condition_variable_any cv_;
};

}  // namespace tycos

#endif  // TYCOS_COMMON_ANNOTATIONS_H_
