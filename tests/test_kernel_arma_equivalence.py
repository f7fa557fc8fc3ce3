"""Accounting-kernel and companion-ARMA equivalence.

The window-loop accounting kernel (``window_batch=True``, the default)
accounts every allocation window in one batched pass; it must emit
records bit-identical to the per-slot reference
(``window_batch=False``) — on fixed populations and under churn,
including 1-slot reallocation windows, truncated horizons and
membership/resize changes landing exactly on allocation boundaries.
The companion-matrix ARMA forecast must match the kept per-step
recursion to <= 1e-10 on the evaluation's default scenarios.
"""

import numpy as np
import pytest

import repro.forecast.batch as batch_mod
from repro.baselines import CoatOptPolicy, CoatPolicy, LoadBalancePolicy
from repro.core import EpactPolicy
from repro.dcsim import CloudSimulation, DataCenterSimulation
from repro.forecast import DayAheadPredictor
from repro.forecast.arima import ArimaModel, ArimaOrder
from repro.forecast.batch import (
    BatchArmaFit,
    batched_arma_fit,
    batched_arma_forecast,
)
from repro.power import ntc_psu
from repro.traces import default_dataset
from repro.traces.lifecycle import LifecycleSchedule


def records_equal(a, b):
    """Exact (bitwise for floats) equality of two record lists."""
    return len(a) == len(b) and all(ra == rb for ra, rb in zip(a, b))


@pytest.fixture(scope="module")
def sb_dataset():
    return default_dataset(n_vms=50, n_days=9, seed=404)


@pytest.fixture(scope="module")
def sb_predictor(sb_dataset):
    predictor = DayAheadPredictor(sb_dataset)
    for day in range(7, sb_dataset.n_days):
        predictor.forecast_day(day)
    return predictor


def _run_fixed(dataset, predictor, policy, **kwargs):
    return DataCenterSimulation(
        dataset, predictor, policy, max_servers=45, **kwargs
    ).run()


class TestKernelFixedPopulation:
    def test_one_slot_windows_match_both_oracles(
        self, sb_dataset, sb_predictor
    ):
        """EPACT reallocates every slot — one kernel call per 1-slot
        window: every record bit-identical to the per-slot path."""
        sup = _run_fixed(sb_dataset, sb_predictor, EpactPolicy())
        ref = _run_fixed(
            sb_dataset, sb_predictor, EpactPolicy(), window_batch=False
        )
        assert records_equal(sup.records, ref.records)

    @pytest.mark.parametrize(
        "policy_cls", [CoatPolicy, CoatOptPolicy, LoadBalancePolicy]
    )
    def test_day_ahead_and_dynamic_policies(
        self, sb_dataset, sb_predictor, policy_cls
    ):
        """Fixed-frequency (COAT/COAT-OPT) and dynamic-governor windows
        through the same kernel."""
        sup = _run_fixed(sb_dataset, sb_predictor, policy_cls())
        ref = _run_fixed(
            sb_dataset, sb_predictor, policy_cls(), window_batch=False
        )
        assert records_equal(sup.records, ref.records)

    @pytest.mark.parametrize("n_slots", [1, 25, 29])
    def test_horizon_not_multiple_of_window(
        self, sb_dataset, sb_predictor, n_slots
    ):
        """Truncated final windows (horizon % 24 != 0) account
        correctly."""
        for policy_cls in (EpactPolicy, CoatPolicy):
            sup = _run_fixed(
                sb_dataset, sb_predictor, policy_cls(), n_slots=n_slots
            )
            ref = _run_fixed(
                sb_dataset,
                sb_predictor,
                policy_cls(),
                n_slots=n_slots,
                window_batch=False,
            )
            assert records_equal(sup.records, ref.records)

    @pytest.mark.parametrize("policy_cls", [EpactPolicy, CoatPolicy])
    def test_psu_and_migration_energy(
        self, sb_dataset, sb_predictor, policy_cls
    ):
        kwargs = dict(
            psu=ntc_psu(), migration_energy_j=250.0, n_slots=30
        )
        sup = _run_fixed(sb_dataset, sb_predictor, policy_cls(), **kwargs)
        ref = _run_fixed(
            sb_dataset,
            sb_predictor,
            policy_cls(),
            window_batch=False,
            **kwargs,
        )
        assert records_equal(sup.records, ref.records)
        assert sup.total_migrations == ref.total_migrations


class TestKernelCloud:
    def _compare(self, dataset, predictor, schedule, policy_factory):
        runs = {}
        for mode, kw in (
            ("kernel", dict()),
            ("slot", dict(window_batch=False)),
        ):
            runs[mode] = CloudSimulation(
                dataset,
                predictor,
                policy_factory(),
                schedule,
                max_servers=45,
                **kw,
            ).run()
        assert records_equal(runs["kernel"].records, runs["slot"].records)
        return runs["kernel"]

    def test_changes_exactly_on_allocation_boundaries(
        self, sb_dataset, sb_predictor
    ):
        """Departure, arrival and resize landing exactly on a day-ahead
        policy's reallocation boundary (slot 192 = 168 + 24), plus
        mid-window changes that cut windows short."""
        n = sb_dataset.n_vms
        arrival = np.zeros(n, dtype=int)
        departure = np.full(n, 216, dtype=int)
        departure[0] = 192  # leaves exactly at the boundary
        arrival[1] = 192  # arrives exactly at the boundary
        departure[2] = 200  # mid-window departure
        arrival[3] = 175  # mid-window arrival
        schedule = LifecycleSchedule(
            arrival,
            departure,
            horizon_start=0,
            horizon_end=216,
            resize_events=[
                (4, 192, 1.3, 0.8),  # resize exactly at the boundary
                (5, 180, 0.7, 1.2),  # resize cutting a window short
            ],
        )
        result = self._compare(
            sb_dataset,
            sb_predictor,
            schedule,
            lambda: CoatPolicy(reallocation_period_slots=24),
        )
        assert sum(r.arrivals for r in result.records) >= 2
        assert sum(r.departures for r in result.records) >= 2

    def test_one_slot_windows_under_churn(self, sb_dataset, sb_predictor):
        """EPACT's 1-slot windows with membership and resize churn."""
        n = sb_dataset.n_vms
        rng = np.random.default_rng(7)
        arrival = rng.integers(0, 190, size=n)
        arrival[: n // 2] = 0
        departure = np.minimum(
            arrival + rng.integers(10, 120, size=n), 216
        )
        departure[: n // 4] = 216
        schedule = LifecycleSchedule(
            arrival,
            departure,
            horizon_start=0,
            horizon_end=216,
            resize_events=[(0, 185, 1.4, 0.9), (1, 201, 0.5, 1.1)],
        )
        self._compare(sb_dataset, sb_predictor, schedule, EpactPolicy)

    def test_empty_windows_interleaved(self, sb_dataset, sb_predictor):
        """An empty-cloud gap mid-horizon: empty-window records and
        accounted records interleave in horizon order."""
        n = sb_dataset.n_vms
        arrival = np.zeros(n, dtype=int)
        departure = np.full(n, 192, dtype=int)
        arrival[n // 2 :] = 196  # nobody active in [192, 196)
        departure[n // 2 :] = 216
        schedule = LifecycleSchedule(
            arrival, departure, horizon_start=0, horizon_end=216
        )
        result = self._compare(
            sb_dataset, sb_predictor, schedule, EpactPolicy
        )
        slots = [r.slot_index for r in result.records]
        assert slots == list(range(168, 216))
        gap = [r for r in result.records if 192 <= r.slot_index < 196]
        assert all(
            r.energy_j == 0.0 and r.n_active_vms == 0 for r in gap
        )


class TestCompanionArmaEquivalence:
    def test_scalar_matches_recursion_on_default_traces(self):
        """ArimaModel on the evaluation's traces: companion vs the kept
        per-step recursion, the acceptance tolerance (1e-10)."""
        dataset = default_dataset(n_vms=12, n_days=9, seed=31)
        for vm in range(6):
            for series in (
                dataset.cpu_pct[vm, : 7 * 288],
                dataset.mem_pct[vm, : 7 * 288],
            ):
                centered = series - series.mean()
                model = ArimaModel(ArimaOrder(p=2, d=0, q=1))
                model.fit(centered)
                np.testing.assert_allclose(
                    model.forecast(288),
                    model.forecast(288, method="recursion"),
                    atol=1.0e-10,
                )

    @pytest.mark.parametrize(
        "order",
        [
            ArimaOrder(1, 0, 0),
            ArimaOrder(0, 0, 2),
            ArimaOrder(3, 0, 2),
            ArimaOrder(2, 1, 1),
            ArimaOrder(0, 1, 1),
        ],
    )
    def test_scalar_order_edge_cases(self, order):
        rng = np.random.default_rng(5)
        for _ in range(5):
            y = np.cumsum(rng.normal(0.0, 1.0, 500)) * 0.05 + 20.0
            model = ArimaModel(order)
            model.fit(y)
            np.testing.assert_allclose(
                model.forecast(100),
                model.forecast(100, method="recursion"),
                atol=1.0e-10,
            )

    def test_batched_matches_recursion(self):
        rng = np.random.default_rng(9)
        w = rng.normal(0.0, 1.0, size=(300, 2016))
        w *= rng.uniform(0.1, 5.0, size=(300, 1))
        fit = batched_arma_fit(w, ArimaOrder(2, 0, 1))
        np.testing.assert_allclose(
            batched_arma_forecast(fit, 288),
            batched_arma_forecast(fit, 288, method="recursion"),
            atol=1.0e-10,
        )

    def test_default_day_ahead_route(self, monkeypatch):
        """The whole DayAheadPredictor default scenario: forcing the
        recursion under the batched route changes nothing beyond
        1e-10."""
        dataset = default_dataset(n_vms=20, n_days=9, seed=13)
        companion = DayAheadPredictor(dataset).forecast_day(7)
        orig = batch_mod.batched_arma_forecast
        monkeypatch.setattr(
            batch_mod,
            "batched_arma_forecast",
            lambda fit, horizon: orig(fit, horizon, method="recursion"),
        )
        recursion = DayAheadPredictor(dataset).forecast_day(7)
        for got, want in zip(companion, recursion):
            np.testing.assert_allclose(got, want, atol=1.0e-10)

    def test_nonfinite_rows_fall_back_to_recursion(self):
        """An explosive AR row overflows the power train; the companion
        route must hand exactly those rows to the recursion."""
        order = ArimaOrder(1, 0, 0)
        fit = BatchArmaFit(
            order=order,
            const=np.array([0.1, 0.0]),
            ar=np.array([[0.5], [12.0]]),  # 12**288 overflows
            ma=np.zeros((2, 0)),
            w_tail=np.array([[1.0], [1.0]]),
            e_tail=np.zeros((2, 1)),
            ok=np.ones(2, dtype=bool),
        )
        with np.errstate(over="ignore", invalid="ignore"):
            companion = batched_arma_forecast(fit, 300)
            recursion = batched_arma_forecast(
                fit, 300, method="recursion"
            )
        # Healthy row: tight agreement; explosive row: identical
        # (it *is* the recursion's output, infs and all).
        np.testing.assert_allclose(
            companion[0], recursion[0], atol=1.0e-10
        )
        assert np.array_equal(companion[1], recursion[1])

    def test_unknown_method_raises(self):
        fit = batched_arma_fit(
            np.random.default_rng(0).normal(size=(4, 300)),
            ArimaOrder(2, 0, 1),
        )
        from repro.errors import ForecastError

        with pytest.raises(ForecastError):
            batched_arma_forecast(fit, 10, method="nope")
        model = ArimaModel(ArimaOrder(1, 0, 0))
        model.fit(np.arange(50, dtype=float) % 7)
        with pytest.raises(ForecastError):
            model.forecast(10, method="nope")
