"""The view-object update translator.

"Once the DBA has chosen the translator, users can specify updates
through the view object, which are then translated into database update
operations." A :class:`Translator` binds a view object to a
:class:`~repro.core.updates.policy.TranslatorPolicy` and exposes the
three complete operations plus the partial ones.

Every write is one pipeline of two steps. The *translate* step runs the
requests over a :class:`~repro.core.updates.bulk.BufferedEngine`
overlay and yields their coalesced plan (the "set of database
operations", a reason attached to every operation); if any check
rejects the update, the overlay is dropped and the database was never
touched. The *commit* step, :meth:`Translator.apply_plan`, journals the
plan, applies it in one engine transaction, and audits the outcome —
the paper's all-or-nothing behaviour. Previews and EXPLAIN run the
translate step alone.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

import repro.obs as obs
from repro.errors import GlobalValidationError, LocalValidationError, UpdateError
from repro.core.dependency_island import analyze_island
from repro.core.instance import Instance, build_instance
from repro.core.instantiation import Instantiator
from repro.core.updates.bulk import BufferedEngine
from repro.core.updates.compiled import CompiledCache, CompiledTranslator
from repro.core.updates.context import TranslationContext
from repro.core.updates.deletion import translate_complete_deletion
from repro.core.updates.insertion import translate_complete_insertion
from repro.core.updates.operations import (
    CompleteDeletion,
    CompleteInsertion,
    PartialDeletion,
    PartialInsertion,
    PartialUpdate,
    Replacement,
    UpdateRequest,
)
from repro.core.updates.partial import (
    translate_partial_deletion,
    translate_partial_insertion,
    translate_partial_update,
)
from repro.core.updates.policy import TranslatorPolicy
from repro.core.updates.replacement import translate_replacement
from repro.core.view_object import ViewObjectDefinition
from repro.obs.audit import AuditLog
from repro.obs.audit import COMMITTED as AUDIT_COMMITTED
from repro.obs.audit import CRASHED as AUDIT_CRASHED
from repro.obs.audit import ROLLED_BACK as AUDIT_ROLLED_BACK
from repro.obs.explain import TranslationExplanation
from repro.relational.engine import Engine
from repro.relational.journal import Images, PlanJournal, plan_images
from repro.relational.operations import UpdatePlan, coalesce_plans
from repro.structural.integrity import IntegrityChecker

__all__ = ["Translator"]

InstanceLike = Union[Instance, Mapping[str, Any]]

# The process-wide default for Translator(compile_plans=None): True runs
# complete operations through the compiled plan builders, False forces
# the interpreted tree walk everywhere. An explicit argument always
# wins; the flag is the operational kill switch, and lets the test
# suite sweep every semantic test across both implementations.
COMPILE_PLANS_DEFAULT = True

# The process-wide default for Translator(strictness=None). "warn"
# runs the static strategy checker at construction and emits a
# StrategyWarning for CRITICAL configurations; "refuse" raises
# UnsafeTranslatorError instead (no CRITICAL config ever reaches a
# CompiledProgram); "off" skips the definition-time check entirely.
STRICTNESS_DEFAULT = "warn"

_STRICTNESS_VALUES = ("off", "warn", "refuse")

#: The op label of each request kind (audit records, metrics, spans).
_OP_LABELS = {
    CompleteInsertion: "insert",
    CompleteDeletion: "delete",
    Replacement: "replace",
    PartialInsertion: "partial_insert",
    PartialDeletion: "partial_delete",
    PartialUpdate: "partial_update",
}


class Translator:
    """Translates updates on one view object into database operations.

    Parameters
    ----------
    view_object:
        The object this translator serves.
    policy:
        The semantics chosen at definition time (dialog output). The
        default is fully permissive.
    verify_integrity:
        When True, every successful translation is followed by a full
        structural-integrity check of the translated overlay; a
        violation raises :class:`GlobalValidationError` before anything
        is committed.
        This is the belt-and-braces mode used by the test suite and the
        integrity ablation.
    journal:
        An optional :class:`~repro.relational.journal.PlanJournal`.
        When set, every top-level translated plan is journaled as a
        write-ahead intent (PENDING before application, COMMITTED
        after), so a crash mid-apply can be resolved by
        :func:`repro.relational.journal.recover`.
    audit:
        An optional :class:`~repro.obs.audit.AuditLog`. When set, every
        top-level view-level update is recorded with its coalesced plan,
        before/after images, dependency island, policy answers, and
        outcome (committed / rolled back / crashed) — the provenance
        trail behind :class:`~repro.obs.lineage.LineageIndex` and
        :func:`~repro.obs.history.replay`.
    compile_plans:
        When True, the complete operations run through a
        :class:`~repro.core.updates.compiled.CompiledProgram` built
        lazily once per view object — the translator is fixed at
        definition time (§6), so the tree walk, island membership, and
        integrity rules are precomputed instead of re-derived per call.
        The compiled path produces byte-identical plans; set False to
        force the interpreted tree walk (the equivalence oracle). The
        default ``None`` defers to the module-level
        :data:`COMPILE_PLANS_DEFAULT` (True).
    """

    def __init__(
        self,
        view_object: ViewObjectDefinition,
        policy: Optional[TranslatorPolicy] = None,
        verify_integrity: bool = False,
        user: Optional[str] = None,
        journal: Optional[PlanJournal] = None,
        audit: Optional[AuditLog] = None,
        compile_plans: Optional[bool] = None,
        strictness: Optional[str] = None,
    ) -> None:
        self.view_object = view_object
        self.policy = policy or TranslatorPolicy.permissive()
        self.analysis = analyze_island(view_object)
        self.verify_integrity = verify_integrity
        self.user = user
        self.journal = journal
        self.audit = audit
        self._policy_dict: Optional[Dict[str, Any]] = None
        self._instantiator = Instantiator(view_object)
        self._checker = IntegrityChecker(view_object.graph)
        if compile_plans is None:
            compile_plans = COMPILE_PLANS_DEFAULT
        self._compiled = CompiledCache(enabled=compile_plans)
        if strictness is None:
            strictness = STRICTNESS_DEFAULT
        if strictness not in _STRICTNESS_VALUES:
            raise ValueError(
                f"strictness must be one of {_STRICTNESS_VALUES}, "
                f"got {strictness!r}"
            )
        self.strictness = strictness
        self._risk_report = None
        if strictness != "off":
            self._enforce_strictness()

    def _enforce_strictness(self) -> None:
        """Definition-time strategy validation (§6 happens once; so does
        this): compute the risk report, then warn or refuse on CRITICAL
        before any plan — compiled or interpreted — can be built."""
        report = self.risk()
        if not report.is_critical:
            return
        worst = "; ".join(
            f.describe() for f in report.at_least(report.level)[:3]
        )
        if self.strictness == "refuse":
            from repro.errors import UnsafeTranslatorError

            raise UnsafeTranslatorError(
                f"translator for {self.view_object.name!r} refused at "
                f"definition time (strictness='refuse'): {worst}",
                report=report,
            )
        import warnings

        from repro.strategy.risk import StrategyWarning

        warnings.warn(
            f"translator for {self.view_object.name!r} is CRITICAL: {worst}",
            StrategyWarning,
            stacklevel=3,
        )

    def risk(self):
        """The static strategy checker's verdict on this configuration
        (:class:`~repro.strategy.risk.RiskReport`), computed once at
        definition time and cached."""
        if self._risk_report is None:
            from repro.strategy.checks import check_strategy

            self._risk_report = check_strategy(
                self.view_object, self.policy, self.analysis
            )
        return self._risk_report

    def for_user(self, user: Optional[str]) -> "Translator":
        """This translator bound to a specific user.

        Step 1 of the paper checks "structural restrictions and user
        authorizations": when the policy names authorized users, updates
        from anyone else are rejected before translation starts.
        """
        bound = Translator.__new__(Translator)
        bound.view_object = self.view_object
        bound.policy = self.policy
        bound.analysis = self.analysis
        bound.verify_integrity = self.verify_integrity
        bound.user = user
        bound.journal = self.journal
        bound.audit = self.audit
        bound._policy_dict = self._policy_dict
        bound._instantiator = self._instantiator
        bound._checker = self._checker
        bound.strictness = self.strictness
        bound._risk_report = self._risk_report
        # Shared *by reference*: every bound copy dispatches through the
        # same lazily built program instead of recompiling per user.
        bound._compiled = self._compiled
        return bound

    # -- compiled dispatch ---------------------------------------------------

    def compiled(self) -> CompiledTranslator:
        """The compiled front door: program introspection and explicit
        engine preparation (prepared sqlite statements, assembly-join
        hash indexes). Forces compilation even when dispatch is off."""
        return CompiledTranslator(self)

    def _translate_insertion(
        self, ctx: TranslationContext, instance: Instance
    ) -> None:
        program = self._compiled.program_for(self.view_object, self.analysis)
        if program is None:
            translate_complete_insertion(ctx, instance)
        else:
            program.run_insertion(ctx, instance)

    def _translate_deletion(
        self, ctx: TranslationContext, instance: Instance
    ) -> None:
        program = self._compiled.program_for(self.view_object, self.analysis)
        if program is None:
            translate_complete_deletion(ctx, instance)
        else:
            program.run_deletion(ctx, instance)

    def _translate_replacement(
        self, ctx: TranslationContext, old: Instance, new: Instance
    ) -> None:
        program = self._compiled.program_for(self.view_object, self.analysis)
        if program is None:
            translate_replacement(ctx, old, new)
        else:
            program.run_replacement(ctx, old, new)

    def translate(
        self, engine: Engine, request: UpdateRequest
    ) -> UpdatePlan:
        """Translate one request into its plan without applying it.

        Runs only the translate step (:meth:`_translate_step`): the base
        engine is never touched and nothing is journaled. This is the
        bare per-update translate path (and what
        :file:`benchmarks/bench_translate.py` measures); :meth:`apply_plan`
        is the matching commit step.
        """
        plans, _ = self._translate_step(
            engine, [request], self._describe_requests([request]),
            coalesce=False,
        )
        return plans[0]

    # -- public operations ---------------------------------------------------

    def insert(self, engine: Engine, instance: InstanceLike) -> UpdatePlan:
        """Complete insertion of a fully specified instance."""
        return self._write_one(
            engine, CompleteInsertion(self._coerce_instance(instance)), "insert"
        )

    def delete(
        self,
        engine: Engine,
        instance: Union[InstanceLike, Sequence[Any], None] = None,
        key: Optional[Sequence[Any]] = None,
    ) -> UpdatePlan:
        """Complete deletion, by instance or by object key."""
        return self._write_one(
            engine, self._deletion(engine, instance, key), "delete"
        )

    def replace(
        self,
        engine: Engine,
        old: Union[InstanceLike, Sequence[Any]],
        new: InstanceLike,
    ) -> UpdatePlan:
        """Replacement: old instance (or its key) and its replacement."""
        return self._write_one(
            engine, self._replacement(engine, old, new), "replace"
        )

    # -- batched operations --------------------------------------------------------

    def insert_many(
        self, engine: Engine, instances: Iterable[InstanceLike]
    ) -> UpdatePlan:
        """Complete insertion of a batch, as one coalesced plan.

        Each instance is translated by the standard VO-CI algorithm over
        one :class:`BufferedEngine` overlay, so instances later in the
        batch observe the effects of earlier ones exactly as a
        sequential loop would. The per-instance plans are then coalesced
        and committed to ``engine`` through its batch primitives in one
        transaction: the batch is all-or-nothing, and any rejection
        leaves the database untouched.
        """
        requests = [
            CompleteInsertion(self._coerce_instance(instance))
            for instance in instances
        ]
        return self._write(engine, requests, "insert")[1]

    def delete_many(
        self,
        engine: Engine,
        instances: Optional[Iterable[Union[InstanceLike, Sequence[Any]]]] = None,
        keys: Optional[Iterable[Sequence[Any]]] = None,
    ) -> UpdatePlan:
        """Complete deletion of a batch (by instance or by object key)."""
        if keys is not None:
            items = [self.instantiate(engine, key) for key in keys]
        else:
            items = [
                self._resolve_instance(engine, instance)
                for instance in (instances or [])
            ]
        requests = [CompleteDeletion(instance) for instance in items]
        return self._write(engine, requests, "delete")[1]

    def apply_plan_batch(
        self, engine: Engine, requests: Iterable[UpdateRequest]
    ) -> UpdatePlan:
        """Translate a batch of :class:`UpdateRequest` objects into one
        coalesced plan and apply it atomically.

        Requests may mix kinds (insertions, deletions, replacements, and
        the partial operations); each is translated in order over the
        shared buffer, so later requests see earlier effects.
        """
        return self._write(engine, list(requests), "batch")[1]

    # -- partial operations --------------------------------------------------------

    def insert_component(
        self,
        engine: Engine,
        instance: Union[InstanceLike, Sequence[Any]],
        node_id: str,
        values: Dict[str, Any],
    ) -> UpdatePlan:
        """Partial insertion: add one component tuple at ``node_id``."""
        instance = self._resolve_instance(engine, instance)
        return self._write_one(
            engine, PartialInsertion(instance, node_id, values),
            "partial_insert",
        )

    def delete_component(
        self,
        engine: Engine,
        instance: Union[InstanceLike, Sequence[Any]],
        node_id: str,
        values: Dict[str, Any],
    ) -> UpdatePlan:
        """Partial deletion: remove one component tuple at ``node_id``."""
        instance = self._resolve_instance(engine, instance)
        return self._write_one(
            engine, PartialDeletion(instance, node_id, values),
            "partial_delete",
        )

    def update_component(
        self,
        engine: Engine,
        instance: Union[InstanceLike, Sequence[Any]],
        node_id: str,
        old_values: Dict[str, Any],
        new_values: Dict[str, Any],
    ) -> UpdatePlan:
        """Partial update: modify one component tuple's nonkey attributes."""
        instance = self._resolve_instance(engine, instance)
        return self._write_one(
            engine, PartialUpdate(instance, node_id, old_values, new_values),
            "partial_update",
        )

    # -- the write pipeline: translate step, then commit step -----------------

    def _write_one(
        self, engine: Engine, request: UpdateRequest, op: str
    ) -> UpdatePlan:
        """One request through both steps; returns its plan in
        translation order."""
        return self._write(engine, [request], op)[0][0]

    def _write(
        self, engine: Engine, requests: List[UpdateRequest], op: str
    ) -> Tuple[List[UpdatePlan], UpdatePlan]:
        """The whole write: translate every request, commit the
        coalesced plan. Returns the per-request plans and the coalesced
        plan that was committed."""
        plans, coalesced = self._translate_step(engine, requests, op)
        self.apply_plan(engine, coalesced, op=op, items=len(requests))
        return plans, coalesced

    def _translate_step(
        self,
        engine: Engine,
        requests: List[UpdateRequest],
        op: str,
        coalesce: bool = True,
    ) -> Tuple[List[UpdatePlan], Optional[UpdatePlan]]:
        """Translate ``requests`` over one overlay; change nothing.

        Step 1 first: the user must be authorized. Each request then
        runs through the real VO-CI / VO-CD / VO-R (or partial) code
        over a shared :class:`BufferedEngine`, so later requests see
        earlier effects and the base engine is never touched. With
        ``verify_integrity`` the overlay gets the full structural check
        at the end. Any rejection is counted and, at top level, audited
        ``rolled_back`` here — the one place a translation's rejection
        is recorded (a failed apply is the commit step's to record).
        Returns the per-request plans and, unless ``coalesce`` is off
        (callers that only want one request's plan), their coalesced
        union, ready for :meth:`apply_plan`.
        """
        tracer = obs.tracer()
        with tracer.span(
            "translate",
            object=self.view_object.name,
            op=op,
            items=len(requests),
        ) as span:
            try:
                if not self.policy.authorizes(self.user):
                    raise LocalValidationError(
                        f"user {self.user!r} is not authorized to update "
                        f"through view object {self.view_object.name!r}"
                    )
                buffered = BufferedEngine(engine)
                plans: List[UpdatePlan] = []
                for request in requests:
                    ctx = TranslationContext(
                        self.view_object, buffered, self.policy, self.analysis
                    )
                    self._translate_request(ctx, request)
                    plans.append(ctx.plan)
                if self.verify_integrity:
                    with tracer.span("verify"):
                        violations = self._checker.check(buffered)
                    if violations:
                        raise GlobalValidationError(
                            f"translation left {len(violations)} integrity "
                            f"violations: "
                            + "; ".join(v.message for v in violations[:5])
                        )
            except Exception as exc:
                obs.metrics().counter(
                    "translation_failures_total", op=op
                ).inc()
                audit = self._active_audit(engine)
                if audit is not None:
                    self._audit(
                        audit, op, AUDIT_ROLLED_BACK, items=len(requests),
                        error=exc,
                    )
                raise
            span.set(ops=sum(len(plan) for plan in plans))
            coalesced = (
                coalesce_plans(plans, engine.schema) if coalesce else None
            )
        return plans, coalesced

    def apply_plan(
        self,
        engine: Engine,
        plan: UpdatePlan,
        op: str = "update",
        items: int = 1,
    ) -> UpdatePlan:
        """The commit step: journal, apply, and audit a translated plan.

        Every write of this translator ends here, and so do callers
        that produced the plan elsewhere — :meth:`explain_batch` runs
        the translate step alone, and a shard coordinator partitions
        its result before committing each piece on its owning engine
        through this method. The base engine must be in the state
        translation observed: the before-images are read here, ahead of
        the first operation, and the intent is durable before it lands.
        A failed apply (already rolled back by ``apply_batch``) marks the
        entry ABORTED and audits the update ``rolled_back``; a simulated
        crash — a ``BaseException`` — leaves the entry PENDING for
        recovery and audits it ``crashed`` until reconciliation.
        """
        journal = self._active_journal(engine)
        audit = self._active_audit(engine)
        registry = obs.metrics()
        with obs.tracer().span(
            "commit",
            object=self.view_object.name,
            op=op,
            ops=len(plan),
            journaled=journal is not None,
        ):
            images = (
                plan_images(engine, plan)
                if journal is not None or audit is not None
                else None
            )
            entry_id = None
            if journal is not None:
                entry_id = journal.begin(
                    plan, images, label=self.view_object.name
                )
            try:
                engine.apply_batch(plan.operations)
            except Exception as exc:
                if entry_id is not None:
                    journal.mark_aborted(entry_id)
                registry.counter("translation_failures_total", op=op).inc()
                if audit is not None:
                    self._audit(
                        audit, op, AUDIT_ROLLED_BACK, plan=plan, items=items,
                        error=exc, journal_entry=entry_id,
                    )
                raise
            except BaseException as exc:
                if audit is not None:
                    self._audit(
                        audit, op, AUDIT_CRASHED, plan=plan, images=images,
                        items=items, error=exc, journal_entry=entry_id,
                    )
                raise
            if entry_id is not None:
                journal.mark_committed(entry_id)
            if audit is not None:
                self._audit(
                    audit, op, AUDIT_COMMITTED, plan=plan, images=images,
                    items=items, journal_entry=entry_id,
                )
            registry.counter("translations_total", op=op).inc()
            registry.histogram("plan_ops", op=op).observe(len(plan))
        return plan

    def _translate_request(
        self, ctx: TranslationContext, request: UpdateRequest
    ) -> None:
        """Dispatch one request against an in-flight translation context."""

        def resolve(instance):
            # Keys resolve against the overlay, so earlier requests in
            # the batch are visible.
            return self._resolve_instance(ctx.engine, instance)

        if isinstance(request, CompleteInsertion):
            self._translate_insertion(ctx, resolve(request.instance))
        elif isinstance(request, CompleteDeletion):
            self._translate_deletion(ctx, resolve(request.instance))
        elif isinstance(request, Replacement):
            self._translate_replacement(
                ctx, resolve(request.old), self._coerce_instance(request.new)
            )
        elif isinstance(request, PartialInsertion):
            translate_partial_insertion(
                ctx, resolve(request.instance), request.node_id, request.values
            )
        elif isinstance(request, PartialDeletion):
            translate_partial_deletion(
                ctx, resolve(request.instance), request.node_id, request.values
            )
        elif isinstance(request, PartialUpdate):
            translate_partial_update(
                ctx,
                resolve(request.instance),
                request.node_id,
                request.old_values,
                request.new_values,
            )
        else:
            raise UpdateError(f"unknown update request: {request!r}")

    # -- helpers -----------------------------------------------------------------

    def _resolve_instance(
        self, engine: Engine, instance: Union[InstanceLike, Sequence[Any]]
    ) -> Instance:
        if isinstance(instance, (Instance, Mapping)):
            return self._coerce_instance(instance)
        return self.instantiate(engine, instance)

    def _deletion(
        self,
        engine: Engine,
        instance: Union[InstanceLike, Sequence[Any], None],
        key: Optional[Sequence[Any]],
    ) -> CompleteDeletion:
        return CompleteDeletion(
            self._resolve_instance(engine, instance if key is None else key)
        )

    def _replacement(
        self,
        engine: Engine,
        old: Union[InstanceLike, Sequence[Any]],
        new: InstanceLike,
    ) -> Replacement:
        return Replacement(
            self._resolve_instance(engine, old), self._coerce_instance(new)
        )

    def instantiate(self, engine: Engine, key: Sequence[Any]) -> Instance:
        """Fetch the current instance with object key ``key``."""
        instance = self._instantiator.by_key(engine, key)
        if instance is None:
            raise UpdateError(
                f"view object {self.view_object.name!r}: no instance with "
                f"key {tuple(key)!r}"
            )
        return instance

    def _coerce_instance(self, instance: InstanceLike) -> Instance:
        if isinstance(instance, Instance):
            return instance
        return build_instance(self.view_object, instance)

    def _active_journal(self, engine: Engine) -> Optional[PlanJournal]:
        """The journal to write through, or None when journaling is off.

        Only *top-level* plans are journaled: inside an enclosing
        transaction the outer scope owns atomicity (and could roll an
        inner entry's effects back after it was marked COMMITTED).
        """
        if self.journal is None:
            return None
        if getattr(engine, "in_transaction", False):
            return None
        return self.journal

    def _active_audit(self, engine: Engine) -> Optional[AuditLog]:
        """The audit log to record into, or None when auditing is off.

        Mirrors :meth:`_active_journal`: only *top-level* updates are
        audited. Inside an enclosing transaction (a user-opened
        :meth:`Penguin.transaction` block) the outer scope owns the
        view-level operation.
        """
        if self.audit is None:
            return None
        if getattr(engine, "in_transaction", False):
            return None
        return self.audit

    def _policy_answers(self) -> Dict[str, Any]:
        """The policy's dialog answers as JSON-safe data, cached."""
        if self._policy_dict is None:
            from repro.core.serialization import policy_to_dict

            self._policy_dict = policy_to_dict(self.policy)
        return self._policy_dict

    def _audit(
        self,
        audit: AuditLog,
        op: str,
        outcome: str,
        plan: Optional[UpdatePlan] = None,
        images: Optional[Images] = None,
        items: int = 1,
        error: Optional[BaseException] = None,
        journal_entry: Optional[int] = None,
    ) -> int:
        asn = audit.append(
            op=op,
            object_name=self.view_object.name,
            outcome=outcome,
            plan=plan,
            images=images,
            island=self.analysis.island_relations,
            policy=self._policy_answers(),
            user=self.user,
            items=items,
            error=None if error is None else f"{type(error).__name__}: {error}",
            journal_entry=journal_entry,
        )
        # Trace -> audit cross-link: the record already carries the
        # ambient trace id; stamping the ASN on the enclosing span lets
        # an assembled trace surface its audit records too.
        span = obs.tracer().current
        if span is not None:
            span.set(asn=asn)
        return asn

    # -- previews (translate, report the plan, change nothing) ----------------

    def preview_insert(self, engine: Engine, instance: InstanceLike) -> UpdatePlan:
        """The plan :meth:`insert` would apply, with the database untouched."""
        return self._preview(
            engine, CompleteInsertion(self._coerce_instance(instance)), "insert"
        )

    def preview_delete(
        self,
        engine: Engine,
        instance: Union[InstanceLike, Sequence[Any], None] = None,
        key: Optional[Sequence[Any]] = None,
    ) -> UpdatePlan:
        """The plan :meth:`delete` would apply, with the database untouched."""
        return self._preview(
            engine, self._deletion(engine, instance, key), "delete"
        )

    def preview_replace(
        self,
        engine: Engine,
        old: Union[InstanceLike, Sequence[Any]],
        new: InstanceLike,
    ) -> UpdatePlan:
        """The plan :meth:`replace` would apply, with the database untouched."""
        return self._preview(
            engine, self._replacement(engine, old, new), "replace"
        )

    def _preview(
        self, engine: Engine, request: UpdateRequest, op: str
    ) -> UpdatePlan:
        plans, _ = self._translate_step(engine, [request], op, coalesce=False)
        obs.metrics().counter("translation_previews_total", op=op).inc()
        return plans[0]

    # -- EXPLAIN (translate over an overlay, execute nothing) ------------------

    def explain(
        self, engine: Engine, request: UpdateRequest
    ) -> TranslationExplanation:
        """The would-be plan of one update request, without executing it.

        The request runs through the translate step — the real VO-CI /
        VO-CD / VO-R code over a :class:`BufferedEngine` overlay, with
        the authorization and integrity checks of a real write — so the
        reported operations, relations, and CASE reasons are exactly
        what :meth:`apply` would produce against the current database,
        but the base engine is never touched. The counterpart of
        :func:`repro.core.query.explain_query` for updates.
        """
        return self.explain_batch(engine, [request])

    def explain_batch(
        self,
        engine: Engine,
        requests: Iterable[UpdateRequest],
        op: Optional[str] = None,
    ) -> TranslationExplanation:
        """The coalesced would-be plan of a batch, without executing it.

        ``op`` labels a rejection's audit record and metrics when the
        caller commits the plan under its own label (a shard coordinator
        does); it defaults to the requests' kind.
        """
        requests = list(requests)
        operation = self._describe_requests(requests)
        plans, coalesced = self._translate_step(
            engine, requests, op or operation
        )
        obs.metrics().counter("explains_total", op=operation).inc()
        combined = UpdatePlan()
        for plan in plans:
            combined.extend(plan)
        touched = set(combined.relations_touched())
        rules = []
        for connection in self.view_object.graph.connections:
            if connection.source in touched or connection.target in touched:
                rules.append(f"{connection.name}: {connection.describe()}")
        return TranslationExplanation(
            object_name=self.view_object.name,
            operation=operation,
            plan=combined,
            coalesced=coalesced,
            island_relations=tuple(self.analysis.island_relations),
            connections=tuple(rules),
            verify_integrity=self.verify_integrity,
            items=len(requests),
            risk=self.risk(),
        )

    @staticmethod
    def _describe_requests(requests: Sequence[UpdateRequest]) -> str:
        """One op label for a request list: its kind, or "mixed"."""
        kinds = {_OP_LABELS.get(type(request), "update") for request in requests}
        if not kinds:
            return "empty"
        if len(kinds) == 1:
            return next(iter(kinds))
        return "mixed"

    # -- query-driven bulk operations ---------------------------------------------

    def delete_where(self, engine: Engine, query: str) -> UpdatePlan:
        """Complete deletion of every instance matching an object query.

        "The query representation can also be used to formulate update
        requests" — this is that formulation for deletions. The matched
        instances go through the same pipeline as :meth:`delete_many`:
        one coalesced plan, one journaled write-ahead intent and one
        audit record for the whole view-level request — all-or-nothing,
        with the base engine untouched until the plan is complete.
        """
        from repro.core.query import execute_query

        instances = execute_query(self.view_object, engine, query)
        requests = [CompleteDeletion(instance) for instance in instances]
        return self._write(engine, requests, "delete_where")[1]

    def update_where(
        self,
        engine: Engine,
        query: str,
        transform: Callable[[Dict[str, Any]], Dict[str, Any]],
    ) -> UpdatePlan:
        """Replace every matching instance by ``transform(instance_dict)``.

        The transform receives each matched instance's nested-dictionary
        form and returns the replacement's. Like :meth:`delete_where`,
        the batch is one coalesced plan, one journal intent, one audit
        record, committed atomically.
        """
        from repro.core.query import execute_query

        instances = execute_query(self.view_object, engine, query)
        requests = [
            Replacement(
                instance, self._coerce_instance(transform(instance.to_dict()))
            )
            for instance in instances
        ]
        return self._write(engine, requests, "update_where")[1]

    # -- request-object dispatch ------------------------------------------------

    def apply(self, engine: Engine, request: UpdateRequest) -> UpdatePlan:
        """Apply a first-class :class:`UpdateRequest` (Section 5's
        operation taxonomy) through this translator."""
        return self._write_one(
            engine, request, self._describe_requests([request])
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Translator({self.view_object.name!r})"
