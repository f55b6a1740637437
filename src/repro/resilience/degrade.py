"""Graceful degradation for workload runs: retry, then step down.

:func:`run_resilient` wraps ``Workload.run`` with a two-dimensional
recovery strategy:

* **within a step**: transient failures (launch/device errors, deadline
  expiry, a failed verification) are retried under a
  :class:`~repro.resilience.policy.RetryPolicy`;
* **across steps**: when a step keeps failing, the run degrades along a
  deterministic ladder — first ``tune="off"`` (a corrupt or infeasible
  tuning-database winner must never kill a run the default geometry can
  serve), then executor fallback ``vectorized → cooperative → sequential``.
  Stencil, BabelStream and miniBUDE results are bit-identical across the
  three modes.  Hartree–Fock's Fock matrix is not: it differs between
  ``sequential`` and ``vectorized`` by up to 2.7e-15 at 5–6 atoms (the
  atomic scatter sites interleave differently) and is nondeterministic
  under ``cooperative``, so a degraded HF result agrees within the
  verification tolerance, not bit for bit.

Every result produced here carries a structured
``provenance["resilience"]`` record: how many attempts ran, whether and
how the run degraded, and the per-attempt error history — sweep reports
can tell a clean run from one that survived on the fallback path.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..core.errors import ReproError, VerificationError
from ..obs import metrics as _obs_metrics
from ..obs import trace as _trace
from .policy import Deadline, RetryPolicy

__all__ = ["run_resilient", "degradation_ladder"]

#: executor fallback chain: key = the mode a step ran with, value = the
#: modes to try next (in order) when that step keeps failing
_EXECUTOR_FALLBACK = {
    "auto": ("cooperative", "sequential"),
    "vectorized": ("cooperative", "sequential"),
    "cooperative": ("sequential",),
    "sequential": (),
}


class _VerificationFailed(ReproError):
    """Internal: a run completed but its verification verdict is False.

    ``Workload.run`` folds :class:`VerificationError` into the result, so
    the retry loop re-raises it as this carrier to route the *completed but
    wrong* outcome through the same retry/degrade machinery as a crash.
    """

    def __init__(self, result):
        detail = result.verification.detail or "verification failed"
        super().__init__(detail)
        self.result = result


def degradation_ladder(request) -> List[object]:
    """The ordered request variants :func:`run_resilient` may fall back to.

    Starts with *request* itself; appends the untuned variant when the
    request is tuned; then appends the executor downgrades of the untuned
    (or original) variant.  The ladder is deterministic and duplicates are
    dropped, so the worst case is a short, fixed list of steps.
    """
    steps = [request]
    base = request
    if request.tune != "off":
        base = request.replace(tune="off")
        steps.append(base)
    for mode in _EXECUTOR_FALLBACK.get(base.executor, ()):
        steps.append(base.replace(executor=mode))
    return steps


def run_resilient(workload, request, *,
                  retry: Optional[RetryPolicy] = None,
                  timeout_ms: Optional[float] = None,
                  degrade: bool = True,
                  check_verification: bool = True):
    """Run *request* with retries, a per-attempt deadline and degradation.

    *retry* may be a :class:`RetryPolicy` or an int (max attempts per
    ladder step); None means a single attempt per step.  *timeout_ms*
    bounds **each attempt** with a :class:`~repro.resilience.policy.Deadline`.
    ``degrade=False`` disables the ladder (retries only).  With
    ``check_verification`` (default) a completed run whose verification
    verdict is False counts as a failed attempt — a corruption fault
    surfaces as a wrong answer, not an exception, and deserves a retry just
    as much.

    Raises the last error when every step is exhausted; when a step at
    least *completed* (with a failing verdict), that result is returned
    instead, its resilience record flagging ``verification_failed``.
    """
    policy = _as_policy(retry)
    steps = degradation_ladder(request) if degrade else [request]
    history: List[Dict[str, object]] = []
    attempts = 0
    last_error: Optional[ReproError] = None
    fallback_result = None
    fallback_step = 0

    for step_index, step in enumerate(steps):
        if step_index > 0:
            # Entering a lower rung of the ladder is a degradation step —
            # counted once per rung actually attempted.
            _obs_metrics.inc("degradation_steps_total")
        for attempt in range(1, policy.max_attempts + 1):
            attempts += 1
            if attempt > 1:
                _obs_metrics.inc("retry_attempts_total")
            try:
                collector = _trace._ACTIVE
                if collector is None:
                    result = _run_once(workload, step, timeout_ms)
                else:
                    with collector.span(f"resilience.attempt[{attempts}]",
                                        step=step_index,
                                        executor=step.executor,
                                        tune=step.tune):
                        result = _run_once(workload, step, timeout_ms)
                if check_verification and result.verification.ran \
                        and not result.verification.passed:
                    raise _VerificationFailed(result)
            except ReproError as exc:
                history.append({
                    "step": step_index,
                    "executor": step.executor,
                    "tune": step.tune,
                    "attempt": attempt,
                    "error_type": (VerificationError.__name__
                                   if isinstance(exc, _VerificationFailed)
                                   else type(exc).__name__),
                    "error": str(exc),
                })
                if isinstance(exc, _VerificationFailed):
                    fallback_result = exc.result
                    fallback_step = step_index
                    if attempt < policy.max_attempts:
                        policy.sleep(policy.delay_s(attempt))
                        continue
                    break  # verdict stuck false: try the next ladder step
                last_error = exc
                if attempt < policy.max_attempts and policy.retryable(exc):
                    policy.sleep(policy.delay_s(attempt))
                    continue
                break  # not retryable / out of attempts: next ladder step
            _attach(result, request, step, step_index, attempts, history,
                    timeout_ms, verification_failed=False)
            return result

    if fallback_result is not None:
        _attach(fallback_result, request, steps[fallback_step],
                fallback_step, attempts, history, timeout_ms,
                verification_failed=True)
        return fallback_result
    assert last_error is not None
    raise last_error


def _as_policy(retry) -> RetryPolicy:
    if retry is None:
        return RetryPolicy(max_attempts=1)
    if isinstance(retry, RetryPolicy):
        return retry
    return RetryPolicy(max_attempts=int(retry))


def _run_once(workload, request, timeout_ms: Optional[float]):
    if timeout_ms is None:
        return workload.run(request)
    return Deadline(timeout_ms).run(workload.run, request)


def _attach(result, requested, ran, step_index: int, attempts: int,
            history: List[Dict[str, object]], timeout_ms: Optional[float],
            *, verification_failed: bool) -> None:
    """Write the structured ``provenance["resilience"]`` record."""
    result.provenance["resilience"] = {
        "attempts": attempts,
        "retried": attempts > 1,
        "degraded": step_index > 0,
        "ladder_step": step_index,
        "requested": {"executor": requested.executor, "tune": requested.tune},
        "ran": {"executor": ran.executor, "tune": ran.tune},
        "timeout_ms": timeout_ms,
        "verification_failed": verification_failed,
        "history": list(history),
    }
