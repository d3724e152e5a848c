"""Pattern-based IR rewriting infrastructure.

Transformation passes are written as :class:`RewritePattern` subclasses whose
``match_and_rewrite`` method inspects one operation at a time and mutates the
IR through the :class:`PatternRewriter` it is given.  Patterns declare the
operation class they fire on either with the :func:`op_rewrite_pattern`
decorator (which reads the type annotation of the ``op`` parameter) or by
subclassing :class:`TypedPattern`.

Two drivers apply patterns to a fixpoint:

* :class:`GreedyRewriteDriver` — the default **worklist** driver.  It indexes
  patterns by root operation class so each op only runs candidate patterns,
  and the :class:`PatternRewriter` reports newly created / modified / erased
  ops back to the worklist, so work after a rewrite is proportional to the
  rewrite's footprint rather than to the module size.
* :class:`RestartingRewriteWalker` — the legacy driver that restarts a full
  pre-order walk of the module after every rewrite.  Kept as the reference
  implementation for equivalence tests and compile-time benchmarks.

Passes and tests enter through :func:`apply_patterns_greedily`.
"""

from __future__ import annotations

import functools
import inspect
import types
import typing
from contextlib import contextmanager
from typing import Iterable, Iterator, Sequence

from repro.ir.builder import InsertPoint
from repro.ir.exceptions import VerifyException
from repro.ir.operation import Block, Operation, Region
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
    nest, each rewrite is credited to every active tally.
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


class RewriteListener:
    """Callbacks through which a :class:`PatternRewriter` reports mutations.

    The worklist driver implements this interface to keep its worklist in
    sync; a standalone rewriter (``listener=None``) skips all reporting.
    """

    def notify_op_created(self, op: Operation) -> None:
        """``op`` (and its nested ops) was inserted into the IR."""

    def notify_op_modified(self, op: Operation) -> None:
        """``op``'s operands, attributes or operand liveness changed."""

    def notify_op_erased(self, op: Operation) -> None:
        """``op`` was detached from the IR."""


class PatternRewriter:
    """Mutation interface handed to rewrite patterns.

    Tracks whether any modification happened so the driver can decide
    whether more work is needed, and reports the footprint of each mutation
    to the driver's :class:`RewriteListener` so only affected ops are
    revisited.
    """

    def __init__(self, current_op: Operation, listener: RewriteListener | None = None):
        self.current_op = current_op
        self.listener = listener
        self.has_done_action = False

    # ------------------------------------------------------------------ #
    # Listener plumbing
    # ------------------------------------------------------------------ #

    def _created(self, op: Operation) -> None:
        if self.listener is not None:
            self.listener.notify_op_created(op)

    def _modified(self, op: Operation) -> None:
        if self.listener is not None:
            self.listener.notify_op_modified(op)

    def _erased(self, op: Operation) -> None:
        if self.listener is not None:
            self.listener.notify_op_erased(op)

    def _notify_users_of(self, values: Iterable[SSAValue]) -> None:
        if self.listener is None:
            return
        for value in values:
            for use in list(value.uses):
                self.listener.notify_op_modified(use.operation)

    def _notify_definers_of(self, op: Operation) -> None:
        """Operand definers of ``op`` may become dead once ``op`` goes away."""
        if self.listener is None:
            return
        for operand in op._operands:
            owner = operand.owner()
            if isinstance(owner, Operation):
                self.listener.notify_op_modified(owner)

    # ------------------------------------------------------------------ #
    # Insertion
    # ------------------------------------------------------------------ #

    def insert_op_before_matched_op(self, ops: Operation | Sequence[Operation]) -> None:
        self.insert_op_before(ops, self.current_op)

    def insert_op_after_matched_op(self, ops: Operation | Sequence[Operation]) -> None:
        self.insert_op_after(ops, self.current_op)

    def insert_op_before(
        self, ops: Operation | Sequence[Operation], target: Operation
    ) -> None:
        block = target.parent
        assert block is not None, "target op is not attached to a block"
        for op in _as_list(ops):
            block.insert_op_before(op, target)
            self._created(op)
        self.has_done_action = True

    def insert_op_after(
        self, ops: Operation | Sequence[Operation], target: Operation
    ) -> None:
        block = target.parent
        assert block is not None, "target op is not attached to a block"
        anchor = target
        for op in _as_list(ops):
            block.insert_op_after(op, anchor)
            self._created(op)
            anchor = op
        self.has_done_action = True

    def insert_op_at_end(self, ops: Operation | Sequence[Operation], block: Block) -> None:
        for op in _as_list(ops):
            block.add_op(op)
            self._created(op)
        self.has_done_action = True

    def insert_op_at_start(
        self, ops: Operation | Sequence[Operation], block: Block
    ) -> None:
        for index, op in enumerate(_as_list(ops)):
            block.insert_op(op, index)
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
            self._notify_users_of([old_result])
            old_result.replace_all_uses_with(new_value)
        self._notify_definers_of(op)
        op.erase()
        self._erased(op)
        self.has_done_action = True

    def erase_matched_op(self) -> None:
        self.erase_op(self.current_op)

    def erase_op(self, op: Operation) -> None:
        self._notify_definers_of(op)
        op.erase()
        self._erased(op)
        self.has_done_action = True

    def replace_all_uses_with(self, old: SSAValue, new: SSAValue) -> None:
        self._notify_users_of([old])
        old.replace_all_uses_with(new)
        self.has_done_action = True

    def set_operand(self, op: Operation, index: int, new_value: SSAValue) -> None:
        """Swap one operand of ``op``, notifying the driver."""
        old = op._operands[index]
        owner = old.owner()
        if isinstance(owner, Operation):
            self._modified(owner)
        op.set_operand(index, new_value)
        self._modified(op)
        self.has_done_action = True

    def notify_op_modified(self, op: Operation) -> None:
        """Record an in-place mutation done outside the rewriter's methods."""
        self._modified(op)
        self.has_done_action = True

    # ------------------------------------------------------------------ #
    # Region surgery
    # ------------------------------------------------------------------ #

    def inline_block_before(
        self, block: Block, target: Operation, arg_values: Sequence[SSAValue] = ()
    ) -> None:
        """Move all ops of ``block`` before ``target``, mapping block args."""
        if arg_values:
            if len(arg_values) != len(block.args):
                raise VerifyException(
                    "inline_block_before: argument count mismatch "
                    f"({len(arg_values)} values for {len(block.args)} args)"
                )
            for arg, value in zip(block.args, arg_values):
                self._notify_users_of([arg])
                arg.replace_all_uses_with(value)
        for op in list(block.ops):
            op.detach()
            assert target.parent is not None
            target.parent.insert_op_before(op, target)
            self._created(op)
        self.has_done_action = True

    def move_region_contents_to_new_block(self, region: Region) -> Block:
        """Detach the single block of ``region`` and return it."""
        block = region.block
        region.blocks.remove(block)
        block.parent = None
        self.has_done_action = True
        return block


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
    Decorating ``match_and_rewrite`` with :func:`op_rewrite_pattern` (or
    subclassing :class:`TypedPattern`) declares the root op class, which lets
    the worklist driver skip the pattern for every other op class.
    """

    def match_and_rewrite(self, op: Operation, rewriter: PatternRewriter) -> None:
        raise NotImplementedError

    def root_op_types(self) -> tuple[type[Operation], ...] | None:
        """Op classes this pattern can fire on; ``None`` means any op."""
        return getattr(type(self).match_and_rewrite, "__root_op_types__", None)


class TypedPattern(RewritePattern):
    """A pattern that only fires on a specific operation class."""

    op_type: type[Operation] = Operation

    def match_and_rewrite(self, op: Operation, rewriter: PatternRewriter) -> None:
        if isinstance(op, self.op_type):
            self.rewrite(op, rewriter)

    def root_op_types(self) -> tuple[type[Operation], ...] | None:
        if self.op_type is Operation:
            return None
        return (self.op_type,)

    def rewrite(self, op: Operation, rewriter: PatternRewriter) -> None:
        raise NotImplementedError


class GreedyRewritePatternApplier(RewritePattern):
    """Applies the first matching pattern from an ordered list."""

    def __init__(self, patterns: Iterable[RewritePattern]):
        self.patterns = list(patterns)

    def match_and_rewrite(self, op: Operation, rewriter: PatternRewriter) -> None:
        for pattern in self.patterns:
            pattern.match_and_rewrite(op, rewriter)
            if rewriter.has_done_action:
                return

    def root_op_types(self) -> tuple[type[Operation], ...] | None:
        union: list[type[Operation]] = []
        for pattern in self.patterns:
            types = pattern.root_op_types()
            if types is None:
                return None
            union.extend(types)
        return tuple(union)


# --------------------------------------------------------------------------- #
# Worklist driver
# --------------------------------------------------------------------------- #


def _flatten_patterns(
    patterns: RewritePattern | Iterable[RewritePattern],
) -> list[RewritePattern]:
    if isinstance(patterns, RewritePattern):
        patterns = [patterns]
    flat: list[RewritePattern] = []
    for pattern in patterns:
        if isinstance(pattern, GreedyRewritePatternApplier):
            flat.extend(pattern.patterns)
        else:
            flat.append(pattern)
    return flat


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


class GreedyRewriteDriver(RewriteListener):
    """Worklist-based greedy pattern driver.

    Seeds a LIFO worklist with the module's ops in pre-order, then pops ops
    and applies the first matching candidate pattern.  Rewrites report their
    footprint (created / modified / erased ops) through the
    :class:`RewriteListener` interface, and only those ops (plus the
    neighbours whose liveness they may have changed) are re-enqueued — the
    module is never re-walked.

    Patterns are indexed by their declared root op class; ops only run the
    patterns that can actually fire on them, in registration order, which
    preserves the first-match priority of
    :class:`GreedyRewritePatternApplier`.  An op whose class has no candidate
    pattern is never enqueued at all: popping it could only discard it, so
    the pop order among the ops that can match — and with it the rewrite
    sequence — is the same as if every op were queued.
    """

    def __init__(
        self,
        patterns: RewritePattern | Iterable[RewritePattern],
        *,
        apply_recursively: bool = True,
        max_rewrites: int = 1_000_000,
    ):
        self.patterns = _flatten_patterns(patterns)
        self.apply_recursively = apply_recursively
        self.max_rewrites = max_rewrites
        self.num_rewrites = 0
        self._dispatch = _Dispatch(self.patterns)
        # The worklist: a stack, plus the ids of the ops on it for O(1) dedup.
        self._stack: list[Operation] = []
        self._queued: set[int] = set()

    def _enqueue(self, op: Operation) -> None:
        if self._dispatch[type(op)] and id(op) not in self._queued:
            self._queued.add(id(op))
            self._stack.append(op)

    # -- listener ------------------------------------------------------- #

    def notify_op_created(self, op: Operation) -> None:
        if not op.regions:
            self._enqueue(op)
            return
        for nested in reversed(list(op.walk())):
            self._enqueue(nested)

    def notify_op_modified(self, op: Operation) -> None:
        self._enqueue(op)

    def notify_op_erased(self, op: Operation) -> None:
        # Popped ops are checked for detachment; nothing to do eagerly.
        pass

    # -- driving -------------------------------------------------------- #

    @staticmethod
    def _is_attached(op: Operation, root: Operation) -> bool:
        """True if ``op`` is still reachable from ``root``.

        Checking ``op.parent`` alone is not enough: erasing an op with
        nested regions detaches only the subtree root, while the inner ops
        keep their parent pointers.
        """
        while op is not root:
            block = op.parent
            if block is None or block.parent is None:
                return False
            op = block.parent.parent
            if op is None:
                return False
        return True

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
        is_attached = self._is_attached
        rewriter = PatternRewriter(root, listener=self)
        changed_any = False
        while stack:
            op = stack.pop()
            queued.discard(id(op))
            if not is_attached(op, root):
                continue  # erased or detached since it was enqueued
            rewriter.current_op = op
            rewriter.has_done_action = False
            for pattern in dispatch[type(op)]:
                pattern.match_and_rewrite(op, rewriter)
                if rewriter.has_done_action:
                    changed_any = True
                    self.num_rewrites += 1
                    _record_rewrite()
                    if self.num_rewrites > self.max_rewrites:
                        raise VerifyException(
                            "pattern rewriting did not converge within "
                            f"{self.max_rewrites} rewrites"
                        )
                    if self.apply_recursively and (
                        op is root or op.parent is not None
                    ):
                        # The root may match again (same or later patterns).
                        self._enqueue(op)
                    break
        return changed_any


# --------------------------------------------------------------------------- #
# Legacy restart-the-world driver
# --------------------------------------------------------------------------- #


class RestartingRewriteWalker:
    """Reference driver that restarts a full pre-order walk after every
    rewrite.

    This was the original driver: simple and predictable, but the restart
    makes whole-module rewriting quadratic (or worse) in module size.  It is
    kept as the behavioural reference for the worklist driver — equivalence
    tests and compile-time benchmarks run both and compare.
    """

    def __init__(
        self,
        pattern: RewritePattern,
        *,
        apply_recursively: bool = True,
        max_iterations: int = 10_000,
    ):
        self.pattern = pattern
        self.apply_recursively = apply_recursively
        self.max_iterations = max_iterations

    def rewrite_module(self, module: Operation) -> bool:
        """Apply patterns until no more changes occur.  Returns True if the
        module was modified at all."""
        changed_any = False
        for _ in range(self.max_iterations):
            changed = self._single_sweep(module)
            changed_any |= changed
            if not changed or not self.apply_recursively:
                return changed_any
        raise VerifyException(
            "pattern rewriting did not converge within "
            f"{self.max_iterations} iterations"
        )

    def _single_sweep(self, module: Operation) -> bool:
        for op in list(module.walk()):
            # The op may have been detached by an earlier rewrite this sweep.
            if op is not module and op.parent is None:
                continue
            rewriter = PatternRewriter(op)
            self.pattern.match_and_rewrite(op, rewriter)
            if rewriter.has_done_action:
                _record_rewrite()
                return True
        return False


# --------------------------------------------------------------------------- #
# Entry points
# --------------------------------------------------------------------------- #

#: When true, :func:`apply_patterns_greedily` routes through the legacy
#: restarting walker.  Flipped by :func:`use_restarting_driver` so
#: equivalence tests and benchmarks can run the whole pipeline on the
#: reference implementation.
_FORCE_RESTARTING_DRIVER: list[bool] = [False]


@contextmanager
def use_restarting_driver() -> Iterator[None]:
    """Route all :func:`apply_patterns_greedily` calls through the legacy
    restart-the-world driver for the duration of the ``with`` block."""
    _FORCE_RESTARTING_DRIVER.append(True)
    try:
        yield
    finally:
        _FORCE_RESTARTING_DRIVER.pop()


def apply_patterns_greedily(
    module: Operation,
    patterns: RewritePattern | Iterable[RewritePattern],
    *,
    apply_recursively: bool = True,
    max_rewrites: int = 1_000_000,
) -> bool:
    """Apply ``patterns`` over ``module`` to a fixpoint.

    The standard entry point for transformation passes.  Uses the worklist
    driver unless the legacy driver was requested via
    :func:`use_restarting_driver`.
    """
    if _FORCE_RESTARTING_DRIVER[-1]:
        flat = _flatten_patterns(patterns)
        pattern = flat[0] if len(flat) == 1 else GreedyRewritePatternApplier(flat)
        return RestartingRewriteWalker(
            pattern,
            apply_recursively=apply_recursively,
            max_iterations=max_rewrites,
        ).rewrite_module(module)
    return GreedyRewriteDriver(
        patterns,
        apply_recursively=apply_recursively,
        max_rewrites=max_rewrites,
    ).rewrite_module(module)

