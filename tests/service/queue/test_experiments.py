"""Named experiments: grouping, aggregate progress, resumability.

An experiment is submitted as the CLI's ``queue submit --experiment``
submits it: one ``JobQueue.submit(..., experiment=NAME)`` per job, the
handles grouped in an :class:`Experiment`.
"""

from repro.benchmarks import benchmark_by_name
from repro.service.queue import Experiment, JobQueue, JobStatus
from repro.transforms.pipeline import PipelineOptions


def _program(name="Jacobian", grid=3):
    return benchmark_by_name(name).program(
        nx=grid, ny=grid, nz=8, time_steps=1
    )


def _options(grid=3):
    return PipelineOptions(grid_width=grid, grid_height=grid)


def _sweep():
    """(program, seed) points: two programs, and a second seed of one."""
    return [
        (_program("Jacobian"), 0),
        (_program("UVKBE"), 0),
        (_program("Jacobian"), 99),
    ]


def _submit(queue, name, sweep):
    handles = [
        queue.submit(
            program, _options(), executor="vectorized", seed=seed,
            experiment=name,
        )
        for program, seed in sweep
    ]
    return Experiment(name, queue, handles)


class TestExperiments:
    def test_experiment_completes_and_aggregates_progress(self):
        with JobQueue(workers=2, mode="inline") as queue:
            experiment = _submit(queue, "sweep-1", _sweep())
            progress = experiment.wait(timeout=300)
        assert progress.name == "sweep-1"
        assert progress.total == 3
        assert progress.done
        assert progress.counts[JobStatus.DONE] == 3
        assert "3/3 finished" in progress.format()
        artifacts = [handle.result() for handle in experiment.handles]
        assert len(artifacts) == 3
        # The seed=99 point is a distinct run of the same program.
        assert artifacts[0].fingerprint != artifacts[2].fingerprint

    def test_experiment_name_is_stamped_on_the_jobs(self):
        with JobQueue(workers=0, mode="inline") as queue:
            _submit(queue, "sweep-2", _sweep())
            records = queue.store.list_jobs(experiment="sweep-2")
        assert len(records) == 3
        assert all(record.experiment == "sweep-2" for record in records)

    def test_resubmission_is_served_entirely_from_the_run_cache(self):
        """The resumability contract: a warm resubmission of the same
        experiment queues nothing and simulates nothing."""
        with JobQueue(workers=2, mode="inline") as queue:
            _submit(queue, "sweep-3", _sweep()).wait(timeout=300)
        with JobQueue(workers=0, mode="inline") as fresh:  # no workers at all
            experiment = _submit(fresh, "sweep-3", _sweep())
            progress = experiment.progress()
            assert progress.done  # terminal without any worker running
            assert fresh.statistics.resumed_from_cache == 3
            assert all(
                record.served_from == "run-cache"
                for record in fresh.store.list_jobs(experiment="sweep-3")
                if record.status is JobStatus.DONE
                and record.id in experiment.job_ids
            )

    def test_partial_completion_resumes_only_the_missing_points(self):
        sweep = _sweep()
        with JobQueue(workers=2, mode="inline") as queue:
            _submit(queue, "warmup", sweep[:2]).wait(timeout=300)
        with JobQueue(workers=2, mode="inline") as resumed:
            _submit(resumed, "full", sweep).wait(timeout=300)
            assert resumed.statistics.resumed_from_cache == 2
        # Counted after close(): the worker threads have joined by then.
        assert resumed.statistics.completed == 1  # only the new point ran
