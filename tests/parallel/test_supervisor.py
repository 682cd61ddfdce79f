"""Supervisor failure-handling edge cases (docs/PARALLEL.md).

Shorter runs than ``test_parity`` (3+2 epochs): these tests exercise the
watchdog, restart budgets and degradation paths, asserting both the
recovery bookkeeping and that recovery never moves the numbers.
"""

import threading
import time

import numpy as np
import pytest

from repro.core import SESTrainer, fast_config
from repro.core.ses import phase_parameters
from repro.datasets import load_dataset
from repro.graph import classification_split
from repro.parallel import ParallelConfig, ParallelTrainingError, WorkerSupervisor
from repro.resilience import FaultPlan

pytestmark = pytest.mark.parallel

EXPLAINABLE_EPOCHS = 3
PREDICTIVE_EPOCHS = 2


def _graph():
    return classification_split(load_dataset("cora", scale=0.15, seed=0), seed=0)


def _config():
    return fast_config(
        "gcn",
        explainable_epochs=EXPLAINABLE_EPOCHS,
        predictive_epochs=PREDICTIVE_EPOCHS,
        seed=0,
    )


def _assert_bit_identical(result, reference):
    assert result.history.phase1_loss == reference.history.phase1_loss
    assert result.history.phase2_loss == reference.history.phase2_loss
    np.testing.assert_array_equal(result.logits, reference.logits)
    assert result.test_accuracy == reference.test_accuracy


@pytest.fixture(scope="module")
def reference():
    """Clean workers=1 run of the short configuration."""
    return SESTrainer(_graph(), _config()).fit(workers=1)


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"workers": 0},
            {"workers": 2, "shards": 0},
            {"workers": 2, "heartbeat_interval": 0.0},
            {"workers": 2, "heartbeat_interval": 1.0, "heartbeat_timeout": 0.5},
            {"workers": 2, "max_restarts": -1},
            {"workers": 2, "restart_backoff": -0.1},
        ],
    )
    def test_bad_config_rejected(self, kwargs):
        with pytest.raises(ValueError):
            ParallelConfig(**kwargs)

    def test_workers_and_batch_size_mutually_exclusive(self):
        with pytest.raises(ValueError, match="exclusive"):
            SESTrainer(_graph(), _config()).fit(batch_size=64, workers=2)

    def test_configure_parallel_after_minibatch_rejected(self):
        trainer = SESTrainer(_graph(), _config())
        trainer._configure_minibatch(64)
        with pytest.raises(ValueError):
            trainer.configure_parallel(2)

    def test_reconfigure_with_different_workers_rejected(self):
        trainer = SESTrainer(_graph(), _config())
        trainer.configure_parallel(2)
        with pytest.raises(ValueError):
            trainer.configure_parallel(4)


class TestHungWorker:
    def test_heartbeat_timeout_catches_silent_worker(self, reference):
        # hang_worker leaves the process *alive* but silent: only the
        # heartbeat watchdog (not the is_alive check) can catch it.
        trainer = SESTrainer(
            _graph(),
            _config(),
            faults=FaultPlan.parse("hang_worker@explainable:1:0"),
        )
        trainer.configure_parallel(2, heartbeat_timeout=1.0)
        result = trainer.fit()
        runner = trainer._parallel
        assert runner.total_failures == 1
        assert runner.total_restarts == 1
        _assert_bit_identical(result, reference)


class TestDegradation:
    def test_budget_exhaustion_degrades_pool_bit_identically(self, reference):
        # max_restarts=0: the first kill permanently drops rank 1 and its
        # shards redistribute over the survivors — numbers unchanged.
        trainer = SESTrainer(
            _graph(),
            _config(),
            faults=FaultPlan.parse("kill_worker@explainable:1:1"),
        )
        trainer.configure_parallel(4, max_restarts=0)
        result = trainer.fit()
        runner = trainer._parallel
        assert runner.degraded_ranks == {1}
        assert runner.total_restarts == 0
        _assert_bit_identical(result, reference)

    def test_empty_pool_raises(self):
        # Two workers, both killed, no restart budget: the supervisor must
        # fail loudly rather than wait forever.
        plan = FaultPlan.parse(
            "kill_worker@explainable:0:0,kill_worker@explainable:0:1"
        )
        trainer = SESTrainer(_graph(), _config(), faults=plan)
        trainer.configure_parallel(2, max_restarts=0)
        with pytest.raises(ParallelTrainingError):
            trainer.fit()


class TestWorkerErrors:
    def test_worker_exception_surfaces_with_traceback(self):
        # A broken init makes ShardContext's constructor raise inside the
        # worker; the supervisor re-raises with the shipped traceback.
        config = ParallelConfig(workers=2, shards=2)
        supervisor = WorkerSupervisor(
            config, num_anchors=8, seed=0, init_factory=lambda: {"bad": 1}
        )
        try:
            with pytest.raises(ParallelTrainingError, match="Traceback"):
                supervisor.run_epoch(
                    "explainable",
                    0,
                    supervisor.epoch_shards(),
                    params=[],
                    constants={"negative_pairs": {}},
                )
        finally:
            supervisor.stop_workers()

    def test_stop_workers_is_idempotent(self):
        config = ParallelConfig(workers=2, shards=2)
        supervisor = WorkerSupervisor(
            config, num_anchors=8, seed=0, init_factory=lambda: {"bad": 1}
        )
        supervisor.stop_workers()  # never started: no-op
        supervisor.stop_workers()


class TestEventChannels:
    def test_worker_killed_mid_write_spares_the_other_workers(self):
        # A worker killed while blocked writing a result larger than the pipe
        # buffer leaves a half-written frame behind.  That may cost only its
        # own events: the other worker's result must still arrive.
        trainer = SESTrainer(_graph(), _config())
        trainer.configure_parallel(2, shards=2)
        runner = trainer._parallel
        params = [p.data.copy() for p in phase_parameters(trainer.model, "explainable")]
        assert sum(p.nbytes for p in params) > 2 * 65536  # gradients overflow a pipe
        constants = {"negative_pairs": trainer.negative_pairs}
        shards = runner.epoch_shards()
        results = {}
        try:
            runner._ensure_started()
            sent = time.monotonic()
            for handle in runner._handles.values():
                runner._send_epoch(handle, "explainable", 0, params, constants)
            deadline = sent + 120.0
            while min(h.last_seen for h in runner._handles.values()) <= sent:
                assert time.monotonic() < deadline, "workers never came up"
                runner._drain_events("explainable", 0, results, timeout=0.1)
            victim, survivor = runner._handles[0], runner._handles[1]
            victim.task_queue.put(("shard", "explainable", 0, 0, shards[0], None))
            # Nobody reads meanwhile, so the victim computes its shard and
            # then blocks writing the result into a full pipe.
            time.sleep(3.0)
            victim.process.kill()
            victim.process.join(timeout=10.0)
            assert not victim.process.is_alive()
            survivor.task_queue.put(("shard", "explainable", 0, 1, shards[1], None))

            def collect():
                while 1 not in results:
                    runner._drain_events("explainable", 0, results, timeout=0.1)

            collector = threading.Thread(target=collect, daemon=True)
            collector.start()
            collector.join(timeout=60.0)
            assert 1 in results, "the surviving worker's result never arrived"
            assert results[1]["loss"] is not None
        finally:
            runner.stop_workers()
