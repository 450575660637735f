"""Array kernels for dense polynomial arithmetic over finite fields.

Coefficients are int64 encodings, ascending degree. Two coefficient modes
exist: "prime" (residues mod p, arithmetic done directly) and "table"
(encodings into a field of p^n elements with n >= 2, multiplication via
exp/log tables and addition digitwise in base p).

Every kernel has a numba @njit implementation and a pure-numpy fallback.
The active backend is selected by the PERMDYN_BACKEND environment variable
("numba" or "numpy"; default is numba whenever it imports) and can be
switched at runtime with set_backend(), which the benchmark uses to compare
both paths in one process.
"""

import os

import numpy as np

try:
    from numba import njit
    HAVE_NUMBA = True
except ImportError:  # numba is an optional extra
    HAVE_NUMBA = False

    def njit(*args, **kwargs):
        def decorator(func):
            return func
        if len(args) == 1 and callable(args[0]):
            return args[0]
        return decorator


# ---------------------------------------------------------------------------
# pure-numpy implementations
# ---------------------------------------------------------------------------

def _vadd_numpy(x, y, p, ndig):
    # digitwise base-p addition of encodings; XOR shortcut in characteristic 2
    if p == 2:
        return x ^ y
    if ndig == 1:
        return (x + y) % p
    out = np.zeros_like(x)
    shift = 1
    for _ in range(ndig):
        out += ((x // shift + y // shift) % p) * shift
        shift *= p
    return out


def _conv_p_numpy(a, b, p):
    return np.convolve(a, b) % p


def _conv_t_numpy(a, b, exp, log, p, ndig):
    if len(a) > len(b):
        a, b = b, a
    out = np.zeros(len(a) + len(b) - 1, dtype=np.int64)
    bnz = b != 0
    lb = log[b]
    for i in range(len(a)):
        ai = a[i]
        if ai == 0:
            continue
        prod = np.where(bnz, exp[log[ai] + lb], 0)
        out[i:i + len(b)] = _vadd_numpy(out[i:i + len(b)], prod, p, ndig)
    return out


def _divmod_p_numpy(a, b, p, inv_lead):
    nq = len(a) - len(b) + 1
    q = np.zeros(nq, dtype=np.int64)
    r = a.copy()
    for i in range(nq - 1, -1, -1):
        c = (r[i + len(b) - 1] * inv_lead) % p
        if c:
            q[i] = c
            r[i:i + len(b)] = (r[i:i + len(b)] - c * b) % p
    return q, r[:len(b) - 1]


def _divmod_t_numpy(a, b, exp, log, p, ndig, inv_lead):
    nq = len(a) - len(b) + 1
    q = np.zeros(nq, dtype=np.int64)
    r = a.copy()
    bnz = b != 0
    lb = log[b]
    linv = log[inv_lead]
    pm1 = p - 1
    for i in range(nq - 1, -1, -1):
        top = r[i + len(b) - 1]
        if top == 0:
            continue
        c = exp[log[top] + linv]
        q[i] = c
        # subtract c*b from r[i : i+len(b)]: negate digitwise then add
        prod = np.where(bnz, exp[log[c] + lb], 0)
        if p != 2:
            neg = np.zeros_like(prod)
            shift = 1
            for _ in range(ndig):
                neg += (pm1 * (prod // shift % p) % p) * shift
                shift *= p
            prod = neg
        r[i:i + len(b)] = _vadd_numpy(r[i:i + len(b)], prod, p, ndig)
    return q, r[:len(b) - 1]


def _eval_p_numpy(coeffs, xs, p):
    acc = np.zeros(len(xs), dtype=np.int64)
    for i in range(len(coeffs) - 1, -1, -1):
        acc = (acc * xs + coeffs[i]) % p
    return acc


def _eval_t_numpy(coeffs, xs, exp, log, p, ndig):
    acc = np.zeros(len(xs), dtype=np.int64)
    xnz = xs != 0
    lx = log[xs]
    for i in range(len(coeffs) - 1, -1, -1):
        nz = (acc != 0) & xnz
        acc = np.where(nz, exp[log[np.where(acc != 0, acc, 1)] + lx], 0)
        c = coeffs[i]
        if c:
            acc = _vadd_numpy(acc, np.full_like(acc, c), p, ndig)
    return acc


# ---------------------------------------------------------------------------
# numba implementations
# ---------------------------------------------------------------------------

@njit(cache=True)
def _add_enc(x, y, p, ndig):
    if p == 2:
        return x ^ y
    out = 0
    shift = 1
    for _ in range(ndig):
        out += ((x // shift + y // shift) % p) * shift
        shift *= p
    return out


@njit(cache=True)
def _conv_p_numba(a, b, p):
    out = np.zeros(len(a) + len(b) - 1, dtype=np.int64)
    for i in range(len(a)):
        ai = a[i]
        if ai == 0:
            continue
        for j in range(len(b)):
            out[i + j] += ai * b[j]
    for i in range(len(out)):
        out[i] %= p
    return out


@njit(cache=True)
def _conv_t_numba(a, b, exp, log, p, ndig):
    out = np.zeros(len(a) + len(b) - 1, dtype=np.int64)
    for i in range(len(a)):
        ai = a[i]
        if ai == 0:
            continue
        la = log[ai]
        for j in range(len(b)):
            bj = b[j]
            if bj == 0:
                continue
            out[i + j] = _add_enc(out[i + j], exp[la + log[bj]], p, ndig)
    return out


@njit(cache=True)
def _divmod_p_numba(a, b, p, inv_lead):
    nq = len(a) - len(b) + 1
    q = np.zeros(nq, dtype=np.int64)
    r = a.copy()
    for i in range(nq - 1, -1, -1):
        c = (r[i + len(b) - 1] * inv_lead) % p
        if c:
            q[i] = c
            for j in range(len(b)):
                r[i + j] = (r[i + j] - c * b[j]) % p
    return q, r[:len(b) - 1]


@njit(cache=True)
def _divmod_t_numba(a, b, exp, log, p, ndig, inv_lead):
    nq = len(a) - len(b) + 1
    q = np.zeros(nq, dtype=np.int64)
    r = a.copy()
    linv = log[inv_lead]
    pm1 = p - 1
    for i in range(nq - 1, -1, -1):
        top = r[i + len(b) - 1]
        if top == 0:
            continue
        c = exp[log[top] + linv]
        q[i] = c
        lc = log[c]
        for j in range(len(b)):
            bj = b[j]
            if bj == 0:
                continue
            prod = exp[lc + log[bj]]
            if p != 2:
                neg = 0
                shift = 1
                for _ in range(ndig):
                    neg += (pm1 * (prod // shift % p) % p) * shift
                    shift *= p
                prod = neg
            r[i + j] = _add_enc(r[i + j], prod, p, ndig)
    return q, r[:len(b) - 1]


@njit(cache=True)
def _eval_p_numba(coeffs, xs, p):
    acc = np.zeros(len(xs), dtype=np.int64)
    for t in range(len(xs)):
        x = xs[t]
        v = 0
        for i in range(len(coeffs) - 1, -1, -1):
            v = (v * x + coeffs[i]) % p
        acc[t] = v
    return acc


@njit(cache=True)
def _eval_t_numba(coeffs, xs, exp, log, p, ndig):
    acc = np.zeros(len(xs), dtype=np.int64)
    for t in range(len(xs)):
        x = xs[t]
        v = 0
        if x == 0:
            if len(coeffs) > 0:
                v = coeffs[0]
        else:
            lx = log[x]
            for i in range(len(coeffs) - 1, -1, -1):
                if v != 0:
                    v = exp[log[v] + lx]
                c = coeffs[i]
                if c:
                    v = _add_enc(v, c, p, ndig)
        acc[t] = v
    return acc


# ---------------------------------------------------------------------------
# backend selection
# ---------------------------------------------------------------------------

_IMPLS = {
    "numpy": {
        "vadd": _vadd_numpy,
        "conv_p": _conv_p_numpy,
        "conv_t": _conv_t_numpy,
        "divmod_p": _divmod_p_numpy,
        "divmod_t": _divmod_t_numpy,
        "eval_p": _eval_p_numpy,
        "eval_t": _eval_t_numpy,
    },
    "numba": {
        "vadd": _vadd_numpy,  # vector add is a numpy one-liner either way
        "conv_p": _conv_p_numba,
        "conv_t": _conv_t_numba,
        "divmod_p": _divmod_p_numba,
        "divmod_t": _divmod_t_numba,
        "eval_p": _eval_p_numba,
        "eval_t": _eval_t_numba,
    },
}

_env = os.environ.get("PERMDYN_BACKEND", "auto").lower()
if _env not in ("auto", "numpy", "numba"):
    raise ValueError("PERMDYN_BACKEND must be 'numba' or 'numpy', got %r" % _env)
if _env == "numba" and not HAVE_NUMBA:
    raise ImportError("PERMDYN_BACKEND=numba but numba is not importable")
_active = "numpy" if (_env == "numpy" or not HAVE_NUMBA) else "numba"


def available_backends():
    """Names of the usable kernel backends."""
    return ("numpy", "numba") if HAVE_NUMBA else ("numpy",)


def get_backend():
    """Name of the active kernel backend."""
    return _active


def set_backend(name):
    """Switch kernel backend at runtime ('numba', 'numpy', or 'auto')."""
    global _active
    if name == "auto":
        _active = "numba" if HAVE_NUMBA else "numpy"
        return
    if name not in _IMPLS:
        raise ValueError("unknown backend %r" % name)
    if name == "numba" and not HAVE_NUMBA:
        raise ValueError("numba backend requested but numba is not importable")
    _active = name


def vadd(x, y, p, ndig):
    return _IMPLS[_active]["vadd"](x, y, p, ndig)


def conv_p(a, b, p):
    return _IMPLS[_active]["conv_p"](a, b, p)


def conv_t(a, b, exp, log, p, ndig):
    return _IMPLS[_active]["conv_t"](a, b, exp, log, p, ndig)


def divmod_p(a, b, p, inv_lead):
    return _IMPLS[_active]["divmod_p"](a, b, p, inv_lead)


def divmod_t(a, b, exp, log, p, ndig, inv_lead):
    return _IMPLS[_active]["divmod_t"](a, b, exp, log, p, ndig, inv_lead)


def eval_p(coeffs, xs, p):
    return _IMPLS[_active]["eval_p"](coeffs, xs, p)


def eval_t(coeffs, xs, exp, log, p, ndig):
    return _IMPLS[_active]["eval_t"](coeffs, xs, exp, log, p, ndig)


def warmup():
    """Force one-time JIT compilation of every numba kernel."""
    if not HAVE_NUMBA:
        return
    a = np.array([1, 1], dtype=np.int64)
    b = np.array([1, 1], dtype=np.int64)
    exp = np.array([1, 2, 3, 1, 2], dtype=np.int64)  # F_4 with generator 2
    log = np.array([0, 0, 1, 2], dtype=np.int64)
    xs = np.array([0, 1, 2, 3], dtype=np.int64)
    _conv_p_numba(a, b, 2)
    _conv_t_numba(a, b, exp, log, 2, 2)
    _divmod_p_numba(a, b, 2, 1)
    _divmod_t_numba(a, b, exp, log, 2, 2, 1)
    _eval_p_numba(a, xs, 5)
    _eval_t_numba(a, xs, exp, log, 2, 2)
