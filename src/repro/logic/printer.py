"""Rendering of terms to text.

``render`` is budgeted and DAG-safe: it walks the term iteratively and stops
emitting once ``max_chars`` is reached, so even a VC whose full tree form is
gigabytes can be displayed.  ``render_full`` renders without a budget and is
meant for small terms (specs, simplified VCs, test output).

Both follow the package-wide iterative traversal discipline (DESIGN.md
section 10): rendering depth is bounded by the explicit work stack, never by
the interpreter stack, so error paths can print arbitrarily deep VCs even
from small-stack worker threads.
"""

from __future__ import annotations

from .terms import Term

__all__ = ["render", "render_full"]

_INFIX = {
    "and": " and ", "or": " or ", "implies": " -> ", "iff": " <-> ",
    "eq": " = ", "lt": " < ", "le": " <= ",
    "add": " + ", "mul": " * ", "div": " div ", "mod": " mod ",
    "xor": " xor ", "band": " & ", "bor": " | ",
    "shl": " << ", "shr": " >> ",
}


def render(term: Term, max_chars: int = 10000) -> str:
    """Render ``term``, truncating with an ellipsis at ``max_chars``."""
    out = []
    count = 0
    truncated = False

    def emit(text: str) -> bool:
        nonlocal count, truncated
        if truncated:
            return False
        remaining = max_chars - count
        if remaining <= 0:
            out.append("…")
            truncated = True
            return False
        if len(text) > remaining:
            out.append(text[:remaining])
            out.append("…")
            truncated = True
            return False
        out.append(text)
        count += len(text)
        return True

    # Work stack of either Term nodes or literal strings to emit.
    stack = [term]
    while stack and not truncated:
        item = stack.pop()
        if isinstance(item, str):
            emit(item)
            continue
        node = item
        op = node.op
        if op == "int":
            emit(str(node.value))
        elif op == "bool":
            emit("true" if node.value else "false")
        elif op == "var":
            emit(node.value)
        elif op == "not":
            emit("not ")
            stack.append(")")
            stack.append(node.args[0])
            emit("(")
        elif op == "bnot":
            emit(f"bnot{node.value}")
            stack.append(")")
            stack.append(node.args[0])
            emit("(")
        elif op == "ite":
            emit("(if ")
            parts = [node.args[0], " then ", node.args[1], " else ",
                     node.args[2], ")"]
            stack.extend(parts[::-1])
        elif op == "select":
            parts = [node.args[0], "[", node.args[1], "]"]
            stack.extend(parts[::-1])
        elif op == "store":
            emit("store(")
            parts = [node.args[0], ", ", node.args[1], ", ", node.args[2], ")"]
            stack.extend(parts[::-1])
        elif op == "apply":
            emit(f"{node.value}(")
            parts = []
            for i, a in enumerate(node.args):
                if i:
                    parts.append(", ")
                parts.append(a)
            parts.append(")")
            stack.extend(parts[::-1])
        elif op in ("forall", "exists"):
            emit(f"({op} {', '.join(node.value)}: ")
            stack.extend([")", node.args[0]])
        elif op in _INFIX:
            sep = _INFIX[op]
            parts = ["("]
            for i, a in enumerate(node.args):
                if i:
                    parts.append(sep)
                parts.append(a)
            parts.append(")")
            stack.extend(parts[::-1])
        else:  # pragma: no cover - defensive for future ops
            emit(f"{op}(")
            parts = []
            for i, a in enumerate(node.args):
                if i:
                    parts.append(", ")
                parts.append(a)
            parts.append(")")
            stack.extend(parts[::-1])
    return "".join(out)


def render_full(term: Term) -> str:
    """Render with a very large budget (intended for small terms)."""
    return render(term, max_chars=10_000_000)
