"""Pattern-based IR rewriting: one greedy worklist driver.

Transformation passes are written as :class:`RewritePattern` subclasses whose
``match_and_rewrite`` method inspects one operation at a time and mutates the
IR through the :class:`PatternRewriter` it is given.  A pattern declares the
operation class it fires on with the :func:`op_rewrite_pattern` decorator,
which reads the type annotation of the ``op`` parameter; an undecorated
pattern runs on every op.

:func:`apply_patterns_greedily` drives patterns to a fixpoint with
:class:`GreedyRewriteDriver`.  The driver indexes patterns by root op class,
so each op runs only its candidate patterns, and the rewriter reports every
op a mutation creates or touches back to the worklist, so the work after a
rewrite is proportional to the rewrite's footprint rather than to the module
size.  Dead-code elimination is part of the driver: once a rewrite has
removed the last use of a pure op, the op is erased, and so, in turn, are
its definers that the erasure leaves unused.  :func:`erase_dead_ops` applies
the same erasure to a whole module.
"""

from __future__ import annotations

import functools
import inspect
import types
import typing
from contextlib import contextmanager
from typing import Iterable, Iterator, Sequence

from repro.ir.exceptions import VerifyException
from repro.ir.operation import Operation
from repro.ir.traits import Pure
from repro.ir.value import SSAValue

# --------------------------------------------------------------------------- #
# Rewrite accounting
# --------------------------------------------------------------------------- #


class RewriteTally:
    """Counts pattern applications inside a :func:`tally_rewrites` scope."""

    __slots__ = ("count",)

    def __init__(self) -> None:
        self.count = 0


_ACTIVE_TALLIES: list[RewriteTally] = []


@contextmanager
def tally_rewrites() -> Iterator[RewriteTally]:
    """Count every pattern application performed inside the ``with`` body.

    Used by the pass manager to attribute rewrite counts to passes; scopes
    nest, each rewrite is credited to every active tally.  Dead ops the
    driver erases are not pattern applications and are not counted.
    """
    tally = RewriteTally()
    _ACTIVE_TALLIES.append(tally)
    try:
        yield tally
    finally:
        _ACTIVE_TALLIES.remove(tally)


def _record_rewrite() -> None:
    for tally in _ACTIVE_TALLIES:
        tally.count += 1


# --------------------------------------------------------------------------- #
# Rewriter
# --------------------------------------------------------------------------- #


class PatternRewriter:
    """Mutation interface handed to rewrite patterns.

    Built by the driver and bound to it, so only the ops a mutation affects
    are revisited: the ops it inserts, the ops whose operands it changes,
    and the ops that lose a use of a result — which the driver also erases
    once the pattern returns if that left them pure and unused.
    ``has_done_action`` tells the driver whether the pattern applied.
    """

    def __init__(self, driver: GreedyRewriteDriver):
        self.current_op: Operation | None = None
        self.has_done_action = False
        self._created = driver._notify_created
        self._modified = driver._enqueue
        self._lost_use = driver._notify_lost_use

    def _notify_users_of(self, value: SSAValue) -> None:
        for use in list(value.uses):
            self._modified(use.operation)

    def _notify_definer_of(self, value: SSAValue) -> None:
        owner = value.owner()
        if isinstance(owner, Operation):
            self._lost_use(owner)

    # ------------------------------------------------------------------ #
    # Insertion
    # ------------------------------------------------------------------ #

    def insert_op_before_matched_op(self, ops: Operation | Sequence[Operation]) -> None:
        self.insert_op_before(ops, self.current_op)

    def insert_op_before(
        self, ops: Operation | Sequence[Operation], target: Operation
    ) -> None:
        block = target.parent
        assert block is not None, "target op is not attached to a block"
        for op in _as_list(ops):
            block.insert_op_before(op, target)
            self._created(op)
        self.has_done_action = True

    # ------------------------------------------------------------------ #
    # Replacement / erasure
    # ------------------------------------------------------------------ #

    def replace_matched_op(
        self,
        new_ops: Operation | Sequence[Operation],
        new_results: Sequence[SSAValue | None] | None = None,
    ) -> None:
        self.replace_op(self.current_op, new_ops, new_results)

    def replace_op(
        self,
        op: Operation,
        new_ops: Operation | Sequence[Operation],
        new_results: Sequence[SSAValue | None] | None = None,
    ) -> None:
        """Replace ``op`` with ``new_ops``.

        The results of ``op`` are replaced by ``new_results`` if given,
        otherwise by the results of the last new operation.
        """
        ops = _as_list(new_ops)
        block = op.parent
        assert block is not None, "cannot replace a detached op"
        for new_op in ops:
            block.insert_op_before(new_op, op)
            self._created(new_op)

        if new_results is None:
            new_results = list(ops[-1].results) if ops else []
        if len(new_results) != len(op.results):
            raise VerifyException(
                f"replacing '{op.name}': expected {len(op.results)} replacement "
                f"values, got {len(new_results)}"
            )
        for old_result, new_value in zip(op.results, new_results):
            if new_value is None:
                if old_result.has_uses:
                    raise VerifyException(
                        f"replacing '{op.name}': result has uses but no replacement"
                    )
                continue
            self._notify_users_of(old_result)
            old_result.replace_all_uses_with(new_value)
        self.erase_op(op)

    def erase_matched_op(self) -> None:
        self.erase_op(self.current_op)

    def erase_op(self, op: Operation) -> None:
        for operand in op._operands:
            owner = operand.owner()
            if isinstance(owner, Operation):
                self._lost_use(owner)
        op.erase()
        self.has_done_action = True

    def replace_all_uses_with(self, old: SSAValue, new: SSAValue) -> None:
        self._notify_users_of(old)
        self._notify_definer_of(old)
        old.replace_all_uses_with(new)
        self.has_done_action = True

    def set_operand(self, op: Operation, index: int, new_value: SSAValue) -> None:
        """Swap one operand of ``op``, notifying the driver."""
        self._notify_definer_of(op._operands[index])
        op.set_operand(index, new_value)
        self._modified(op)
        self.has_done_action = True


def _as_list(ops: Operation | Sequence[Operation]) -> list[Operation]:
    if isinstance(ops, Operation):
        return [ops]
    return list(ops)


# --------------------------------------------------------------------------- #
# Patterns
# --------------------------------------------------------------------------- #


def op_rewrite_pattern(method):
    """Restrict a ``match_and_rewrite`` method to the annotated op class.

    The decorated method declares its root operation type through the type
    annotation of its ``op`` parameter::

        class FoldAdd(RewritePattern):
            @op_rewrite_pattern
            def match_and_rewrite(self, op: arith.AddfOp, rewriter):
                ...

    Union annotations (``A | B``) register the pattern for every member.  The
    driver uses the declared types to dispatch: ops of other classes never
    reach the pattern.
    """
    hints = typing.get_type_hints(method)
    parameters = list(inspect.signature(method).parameters)
    if len(parameters) < 3:
        raise TypeError(
            "op_rewrite_pattern expects a method(self, op, rewriter) signature"
        )
    annotation = hints.get(parameters[1])
    if annotation is None:
        raise TypeError(
            "op_rewrite_pattern requires a type annotation on the op parameter"
        )
    op_types = _expand_annotation(annotation)

    @functools.wraps(method)
    def wrapper(self, op: Operation, rewriter: PatternRewriter) -> None:
        if isinstance(op, op_types):
            method(self, op, rewriter)

    wrapper.__root_op_types__ = op_types
    return wrapper


def _expand_annotation(annotation) -> tuple[type[Operation], ...]:
    origin = typing.get_origin(annotation)
    if origin is typing.Union or origin is getattr(types, "UnionType", None):
        members = typing.get_args(annotation)
    else:
        members = (annotation,)
    op_types = []
    for member in members:
        if not (isinstance(member, type) and issubclass(member, Operation)):
            raise TypeError(
                f"op_rewrite_pattern annotation {member!r} is not an Operation class"
            )
        op_types.append(member)
    return tuple(op_types)


class RewritePattern:
    """Base class for rewrite patterns.

    Subclasses override :meth:`match_and_rewrite`; a pattern that does not
    apply to the given op simply returns without calling any rewriter method.
    Decorating ``match_and_rewrite`` with :func:`op_rewrite_pattern` declares
    the root op class, which lets the driver skip the pattern for every other
    op class.
    """

    def match_and_rewrite(self, op: Operation, rewriter: PatternRewriter) -> None:
        raise NotImplementedError

    def root_op_types(self) -> tuple[type[Operation], ...] | None:
        """Op classes this pattern can fire on; ``None`` means any op."""
        return getattr(type(self).match_and_rewrite, "__root_op_types__", None)


# --------------------------------------------------------------------------- #
# Dead-op erasure
# --------------------------------------------------------------------------- #


def _is_attached(op: Operation, root: Operation) -> bool:
    """True if ``op`` is still reachable from ``root``.

    Checking ``op.parent`` alone is not enough: erasing an op with nested
    regions detaches only the subtree root, while the inner ops keep their
    parent pointers.
    """
    while op is not root:
        block = op.parent
        if block is None or block.parent is None:
            return False
        op = block.parent.parent
        if op is None:
            return False
    return True


def _erase_dead(candidates: list[Operation], root: Operation, lost_use) -> None:
    """Erase every candidate that is pure, has results and has no uses.

    The definers of each erased op are passed to ``lost_use``, which puts
    them back on ``candidates``, so a chain the last rewrite left unused goes
    as a whole.  Candidates may repeat and may already be erased.
    """
    while candidates:
        op = candidates.pop()
        if Pure not in op.traits or not op.results:
            continue
        if any(result.uses for result in op.results) or not _is_attached(op, root):
            continue
        for operand in op._operands:
            owner = operand.owner()
            if isinstance(owner, Operation):
                lost_use(owner)
        op.erase()


def erase_dead_ops(root: Operation) -> None:
    """Erase every pure op under ``root`` whose results are all unused,
    including the ops that only such ops used."""
    # Reversed pre-order: users before the ops that define their operands.
    candidates = list(root.walk())
    _erase_dead(candidates, root, candidates.append)


# --------------------------------------------------------------------------- #
# Worklist driver
# --------------------------------------------------------------------------- #

#: Pattern applications one driver run may make before it is declared
#: non-converging.
MAX_REWRITES = 1_000_000


class _Dispatch(dict):
    """Op class -> the patterns that can fire on it, in registration order.

    Filled in on the first lookup of each class, so every later lookup is a
    plain dict hit.
    """

    def __init__(self, patterns: Sequence[RewritePattern]):
        super().__init__()
        self._rooted = [(pattern, pattern.root_op_types()) for pattern in patterns]

    def __missing__(self, op_class: type) -> tuple[RewritePattern, ...]:
        candidates = self[op_class] = tuple(
            pattern
            for pattern, roots in self._rooted
            if roots is None or issubclass(op_class, roots)
        )
        return candidates


class GreedyRewriteDriver:
    """Worklist-based greedy pattern driver.

    Seeds a LIFO worklist with the module's ops in pre-order, then pops ops
    and applies the first matching candidate pattern.  The rewriter reports
    each rewrite's footprint (created ops, ops whose operands changed and
    ops that lost a use), and only those ops are re-enqueued — the module is
    never re-walked.  After each rewrite, the ops that lost a use and are
    left pure and unused are erased, cascading through their definers.

    Patterns are indexed by their declared root op class; ops only run the
    patterns that can actually fire on them, in registration order, so the
    first pattern in the list that applies wins.  An op whose class has no
    candidate pattern is never enqueued at all: popping it could only
    discard it, so the pop order among the ops that can match — and with it
    the rewrite sequence — is the same as if every op were queued.
    """

    def __init__(self, patterns: RewritePattern | Iterable[RewritePattern]):
        if isinstance(patterns, RewritePattern):
            patterns = [patterns]
        self.patterns = list(patterns)
        self.num_rewrites = 0
        self._dispatch = _Dispatch(self.patterns)
        # The worklist: a stack, plus the ids of the ops on it for O(1) dedup.
        self._stack: list[Operation] = []
        self._queued: set[int] = set()
        # Ops that lost a use in the current rewrite: the candidates of the
        # dead-op erasure after it.
        self._lost_uses: list[Operation] = []

    def _enqueue(self, op: Operation) -> None:
        if self._dispatch[type(op)] and id(op) not in self._queued:
            self._queued.add(id(op))
            self._stack.append(op)

    def _notify_created(self, op: Operation) -> None:
        if not op.regions:
            self._enqueue(op)
            return
        for nested in reversed(list(op.walk())):
            self._enqueue(nested)

    def _notify_lost_use(self, op: Operation) -> None:
        self._lost_uses.append(op)
        self._enqueue(op)

    def rewrite_module(self, root: Operation) -> bool:
        """Apply patterns until no more changes occur.  Returns True if the
        module was modified at all."""
        self.num_rewrites = 0
        dispatch = self._dispatch
        # Pre-order yields every op once, so the seed needs no dedup; reversed
        # so that the first op of the module is popped first.
        stack = self._stack = [op for op in root.walk() if dispatch[type(op)]]
        stack.reverse()
        queued = self._queued = set(map(id, stack))
        lost_uses = self._lost_uses
        rewriter = PatternRewriter(self)
        changed_any = False
        while stack:
            op = stack.pop()
            queued.discard(id(op))
            if not _is_attached(op, root):
                continue  # erased or detached since it was enqueued
            rewriter.current_op = op
            rewriter.has_done_action = False
            for pattern in dispatch[type(op)]:
                pattern.match_and_rewrite(op, rewriter)
                if rewriter.has_done_action:
                    changed_any = True
                    self.num_rewrites += 1
                    _record_rewrite()
                    if self.num_rewrites > MAX_REWRITES:
                        raise VerifyException(
                            "pattern rewriting did not converge within "
                            f"{MAX_REWRITES} rewrites"
                        )
                    if op is root or op.parent is not None:
                        # The root may match again (same or later patterns).
                        self._enqueue(op)
                    # Empties ``lost_uses`` for the next rewrite.
                    _erase_dead(lost_uses, root, self._notify_lost_use)
                    break
        return changed_any


# --------------------------------------------------------------------------- #
# Entry point
# --------------------------------------------------------------------------- #


def apply_patterns_greedily(
    module: Operation, patterns: RewritePattern | Iterable[RewritePattern]
) -> bool:
    """Apply ``patterns`` over ``module`` to a fixpoint; the standard entry
    point for transformation passes.  Returns True if anything changed."""
    return GreedyRewriteDriver(patterns).rewrite_module(module)
