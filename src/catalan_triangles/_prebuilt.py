"""The statement compiler's output for the built-in statements; generated, do not edit.

    PYTHONPATH=src python tests/generated_sources.py --module > src/catalan_triangles/_prebuilt.py

writes this file from statements.py.  Each _build_<i> is the factory
statements.compile_identity generates for one built-in text, byte for
byte but for its name, and BUILT maps (parameter names, statement,
constraint text) to it.  identities._compiled calls a factory's code with
its own globals, so the code reads _c_ext, binomial and the tables there
at call time; CPython's .pyc of this module keeps the compiled code.
"""


# prop-recurrence
def _build_0(Fraction, _lcm, _partials, DomainError):
    def lhs(m, k):
        return _c_ext((m + 2), k)
    def rhs(m, k):
        return ((_c_ext(m, k) + (2*_c_ext(m, (k - 1)))) + _c_ext(m, (k - 2)))
    def line(m, _xs):
        _t1 = None
        _t2 = None
        _pairs = []
        for k in _xs:
            if _t1 is None:
                _t1 = _c_table((m + 2), 2 * len(_xs))
                _t1n = len(_t1)
            if _t2 is None:
                _t2 = _c_table(m, 2 * len(_xs))
                _t2n = len(_t2)
            _d3 = (k - 1)
            _d4 = (k - 2)
            _pairs.append(((_t1[k] if 0 <= k < _t1n else (0 if _t1n else _c_ext((m + 2), k))), (((_t2[k] if 0 <= k < _t2n else (0 if _t2n else _c_ext(m, k))) + (2*(_t2[_d3] if 0 <= _d3 < _t2n else (0 if _t2n else _c_ext(m, _d3))))) + (_t2[_d4] if 0 <= _d4 < _t2n else (0 if _t2n else _c_ext(m, _d4))))))
        return _pairs
    return {'lhs': lhs, 'rhs': rhs, 'line': line}


# rec-B
def _build_1(Fraction, _lcm, _partials, DomainError):
    def lhs(n, k):
        return _b_ext(n, k)
    def rhs(n, k):
        return ((_b_ext((n - 1), (k - 1)) + (2*_b_ext((n - 1), k))) + _b_ext((n - 1), (k + 1)))
    def line(n, _xs):
        _t1 = None
        _t3 = None
        _pairs = []
        for k in _xs:
            if _t1 is None:
                _t1 = _b_table(n, 2 * len(_xs))
                _t1n = len(_t1)
            _d2 = (k - 1)
            if _t3 is None:
                _t3 = _b_table((n - 1), 2 * len(_xs))
                _t3n = len(_t3)
            _d4 = (k + 1)
            _pairs.append(((_t1[k] if 0 <= k < _t1n else (0 if _t1n else _b_ext(n, k))), (((_t3[_d2] if 0 <= _d2 < _t3n else (0 if _t3n else _b_ext((n - 1), _d2))) + (2*(_t3[k] if 0 <= k < _t3n else (0 if _t3n else _b_ext((n - 1), k))))) + (_t3[_d4] if 0 <= _d4 < _t3n else (0 if _t3n else _b_ext((n - 1), _d4))))))
        return _pairs
    def constraint(n, k):
        return k <= n
    def admit(n, _xs):
        return [k for k in _xs if k <= n]
    return {'lhs': lhs, 'rhs': rhs, 'line': line, 'constraint': constraint, 'admit': admit}


# rec-A
def _build_2(Fraction, _lcm, _partials, DomainError):
    def lhs(n, k):
        return _a_ext(n, k)
    def rhs(n, k):
        return ((_a_ext((n - 1), (k - 1)) + (2*_a_ext((n - 1), k))) + _a_ext((n - 1), (k + 1)))
    def line(n, _xs):
        _t1 = None
        _t3 = None
        _pairs = []
        for k in _xs:
            if _t1 is None:
                _t1 = _a_table(n, 2 * len(_xs))
                _t1n = len(_t1)
            _d2 = (k - 1)
            if _t3 is None:
                _t3 = _a_table((n - 1), 2 * len(_xs))
                _t3n = len(_t3)
            _d4 = (k + 1)
            _pairs.append(((_t1[k] if 0 <= k < _t1n else (0 if _t1n else _a_ext(n, k))), (((_t3[_d2] if 0 <= _d2 < _t3n else (0 if _t3n else _a_ext((n - 1), _d2))) + (2*(_t3[k] if 0 <= k < _t3n else (0 if _t3n else _a_ext((n - 1), k))))) + (_t3[_d4] if 0 <= _d4 < _t3n else (0 if _t3n else _a_ext((n - 1), _d4))))))
        return _pairs
    def constraint(n, k):
        return k <= (n + 1)
    def admit(n, _xs):
        return [k for k in _xs if k <= (n + 1)]
    return {'lhs': lhs, 'rhs': rhs, 'line': line, 'constraint': constraint, 'admit': admit}


# thm-linear-sum
def _build_3(Fraction, _lcm, _partials, DomainError):
    _rs4 = object()
    def lhs(m, n):
        _store = _partials()
        _k1, _num2, _den3 = _store.get((_rs4, m), (None, 0, 1))
        if _k1 is None or _k1 > n + 1:
            _k1, _num2, _den3 = 0, 0, 1
        while _k1 <= n:
            k = _k1
            _num2 += _c_ext(m, k)
            _k1 += 1
        _store[(_rs4, m)] = _k1, _num2, _den3
        return _num2
    def rhs(m, n):
        return binomial((m - 1), n)
    def line(m, _xs):
        _k6 = None
        _t5 = None
        _t9 = None
        _pairs = []
        for n in _xs:
            if _k6 is None or _k6 > n + 1:
                _k6, _num7, _den8 = 0, 0, 1
            while _k6 <= n:
                k = _k6
                if _t5 is None:
                    _t5 = _c_table(m, 2 * len(_xs))
                    _t5n = len(_t5)
                _num7 += (_t5[k] if 0 <= k < _t5n else (0 if _t5n else _c_ext(m, k)))
                _k6 += 1
            if _t9 is None:
                _t9 = _binomial_table((m - 1), 2 * len(_xs))
                _t9n = len(_t9)
            _pairs.append((_num7, (_t9[n] if 0 <= n < _t9n else (0 if _t9n else binomial((m - 1), n)))))
        return _pairs
    return {'lhs': lhs, 'rhs': rhs, 'line': line}


# thm-alt-sum
def _build_4(Fraction, _lcm, _partials, DomainError):
    _rs4 = object()
    def lhs(m, n):
        _store = _partials()
        _k1, _num2, _den3 = _store.get((_rs4, m), (None, 0, 1))
        if _k1 is None or _k1 > n + 1:
            _k1, _num2, _den3 = 0, 0, 1
        while _k1 <= n:
            k = _k1
            if k < 0:
                raise DomainError('exponent k is %d, below 0' % k)
            _num2 += ((-1 if k & 1 else 1)*_c_ext(m, k))
            _k1 += 1
        _store[(_rs4, m)] = _k1, _num2, _den3
        return _num2
    def rhs(m, n):
        if n < 0:
            raise DomainError('exponent n is %d, below 0' % n)
        return ((-1 if n & 1 else 1)*_c_ext((m - 1), n))
    def line(m, _xs):
        _k6 = None
        _t5 = None
        _t9 = None
        _pairs = []
        for n in _xs:
            if _k6 is None or _k6 > n + 1:
                _k6, _num7, _den8 = 0, 0, 1
            while _k6 <= n:
                k = _k6
                if k < 0:
                    raise DomainError('exponent k is %d, below 0' % k)
                if _t5 is None:
                    _t5 = _c_table(m, 2 * len(_xs))
                    _t5n = len(_t5)
                _num7 += ((-1 if k & 1 else 1)*(_t5[k] if 0 <= k < _t5n else (0 if _t5n else _c_ext(m, k))))
                _k6 += 1
            if n < 0:
                raise DomainError('exponent n is %d, below 0' % n)
            if _t9 is None:
                _t9 = _c_table((m - 1), 2 * len(_xs))
                _t9n = len(_t9)
            _pairs.append((_num7, ((-1 if n & 1 else 1)*(_t9[n] if 0 <= n < _t9n else (0 if _t9n else _c_ext((m - 1), n))))))
        return _pairs
    def constraint(m, n):
        return n <= (m - 1)
    def admit(m, _xs):
        return [n for n in _xs if n <= (m - 1)]
    return {'lhs': lhs, 'rhs': rhs, 'line': line, 'constraint': constraint, 'admit': admit}


# cor-alt-B
def _build_5(Fraction, _lcm, _partials, DomainError):
    def lhs(n):
        _k1, _num2, _den3 = 1, 0, 1
        while _k1 <= n:
            k = _k1
            if k < 0:
                raise DomainError('exponent k is %d, below 0' % k)
            _num2 += ((-1 if k & 1 else 1)*_b_ext(n, k))
            _k1 += 1
        return _num2
    def rhs(n):
        return (-catalan((n - 1)))
    def line(_xs):
        _pairs = []
        for n in _xs:
            _t4 = None
            _k5, _num6, _den7 = 1, 0, 1
            while _k5 <= n:
                k = _k5
                if k < 0:
                    raise DomainError('exponent k is %d, below 0' % k)
                if _t4 is None:
                    _t4 = _b_table(n, 2 * (n - k + 1))
                    _t4n = len(_t4)
                _num6 += ((-1 if k & 1 else 1)*(_t4[k] if 0 <= k < _t4n else (0 if _t4n else _b_ext(n, k))))
                _k5 += 1
            _pairs.append((_num6, (-catalan((n - 1)))))
        return _pairs
    return {'lhs': lhs, 'rhs': rhs, 'line': line}


# cor-alt-A
def _build_6(Fraction, _lcm, _partials, DomainError):
    def lhs(n):
        _d1 = (n + 1)
        _k2, _num3, _den4 = 1, 0, 1
        while _k2 <= _d1:
            k = _k2
            if k < 0:
                raise DomainError('exponent k is %d, below 0' % k)
            _num3 += ((-1 if k & 1 else 1)*_a_ext(n, k))
            _k2 += 1
        return _num3
    def rhs(n):
        return 0
    def line(_xs):
        _pairs = []
        for n in _xs:
            _d5 = (n + 1)
            _t6 = None
            _k7, _num8, _den9 = 1, 0, 1
            while _k7 <= _d5:
                k = _k7
                if k < 0:
                    raise DomainError('exponent k is %d, below 0' % k)
                if _t6 is None:
                    _t6 = _a_table(n, 2 * (_d5 - k + 1))
                    _t6n = len(_t6)
                _num8 += ((-1 if k & 1 else 1)*(_t6[k] if 0 <= k < _t6n else (0 if _t6n else _a_ext(n, k))))
                _k7 += 1
            _pairs.append((_num8, 0))
        return _pairs
    return {'lhs': lhs, 'rhs': rhs, 'line': line}


# eq-linear-B
def _build_7(Fraction, _lcm, _partials, DomainError):
    def lhs(n):
        _k1, _num2, _den3 = 1, 0, 1
        while _k1 <= n:
            k = _k1
            _num2 += _b_ext(n, k)
            _k1 += 1
        return _num2
    def rhs(n):
        return Fraction(((n + 1)*catalan(n)), 2)
    def line(_xs):
        _pairs = []
        for n in _xs:
            _t4 = None
            _k5, _num6, _den7 = 1, 0, 1
            while _k5 <= n:
                k = _k5
                if _t4 is None:
                    _t4 = _b_table(n, 2 * (n - k + 1))
                    _t4n = len(_t4)
                _num6 += (_t4[k] if 0 <= k < _t4n else (0 if _t4n else _b_ext(n, k)))
                _k5 += 1
            if not 2:
                raise ZeroDivisionError('zero denominator')
            _pairs.append(((_num6*2), ((n + 1)*catalan(n))))
        return _pairs
    return {'lhs': lhs, 'rhs': rhs, 'line': line}


# eq-linear-A
def _build_8(Fraction, _lcm, _partials, DomainError):
    def lhs(n):
        _d1 = (n + 1)
        _k2, _num3, _den4 = 1, 0, 1
        while _k2 <= _d1:
            k = _k2
            _num3 += _a_ext(n, k)
            _k2 += 1
        return _num3
    def rhs(n):
        return ((n + 1)*catalan(n))
    def line(_xs):
        _pairs = []
        for n in _xs:
            _d5 = (n + 1)
            _t6 = None
            _k7, _num8, _den9 = 1, 0, 1
            while _k7 <= _d5:
                k = _k7
                if _t6 is None:
                    _t6 = _a_table(n, 2 * (_d5 - k + 1))
                    _t6n = len(_t6)
                _num8 += (_t6[k] if 0 <= k < _t6n else (0 if _t6n else _a_ext(n, k)))
                _k7 += 1
            _pairs.append((_num8, ((n + 1)*catalan(n))))
        return _pairs
    return {'lhs': lhs, 'rhs': rhs, 'line': line}


# eq-square-B, cor-square-ii
def _build_9(Fraction, _lcm, _partials, DomainError):
    def lhs(n):
        _k2, _num3, _den4 = 1, 0, 1
        while _k2 <= n:
            k = _k2
            _num3 += ((_d1 := _b_ext(n, k))*_d1)
            _k2 += 1
        return _num3
    def rhs(n):
        return catalan(((2*n) - 1))
    def line(_xs):
        _pairs = []
        for n in _xs:
            _t5 = None
            _k7, _num8, _den9 = 1, 0, 1
            while _k7 <= n:
                k = _k7
                if _t5 is None:
                    _t5 = _b_table(n, 2 * (n - k + 1))
                    _t5n = len(_t5)
                _num8 += ((_d6 := (_t5[k] if 0 <= k < _t5n else (0 if _t5n else _b_ext(n, k))))*_d6)
                _k7 += 1
            _pairs.append((_num8, catalan(((2*n) - 1))))
        return _pairs
    return {'lhs': lhs, 'rhs': rhs, 'line': line}


# eq-square-A, cor-square-iii
def _build_10(Fraction, _lcm, _partials, DomainError):
    def lhs(n):
        _d1 = (n + 1)
        _k3, _num4, _den5 = 1, 0, 1
        while _k3 <= _d1:
            k = _k3
            _num4 += ((_d2 := _a_ext(n, k))*_d2)
            _k3 += 1
        return _num4
    def rhs(n):
        return catalan((2*n))
    def line(_xs):
        _pairs = []
        for n in _xs:
            _d6 = (n + 1)
            _t7 = None
            _k9, _num10, _den11 = 1, 0, 1
            while _k9 <= _d6:
                k = _k9
                if _t7 is None:
                    _t7 = _a_table(n, 2 * (_d6 - k + 1))
                    _t7n = len(_t7)
                _num10 += ((_d8 := (_t7[k] if 0 <= k < _t7n else (0 if _t7n else _a_ext(n, k))))*_d8)
                _k9 += 1
            _pairs.append((_num10, catalan((2*n))))
        return _pairs
    return {'lhs': lhs, 'rhs': rhs, 'line': line}


# eq-convolution
def _build_11(Fraction, _lcm, _partials, DomainError):
    def lhs(n, i):
        _k1, _num2, _den3 = 1, 0, 1
        while _k1 <= i:
            k = _k1
            _num2 += ((_b_ext(n, k)*_b_ext(n, ((n + k) - i)))*((n + (2*k)) - i))
            _k1 += 1
        return _num2
    def rhs(n, i):
        return (((n + 1)*catalan(n))*binomial(((2*n) - 2), (i - 1)))
    def line(n, _xs):
        _t4 = None
        _t10 = None
        _pairs = []
        for i in _xs:
            _k6, _num7, _den8 = 1, 0, 1
            while _k6 <= i:
                k = _k6
                if _t4 is None:
                    _t4 = _b_table(n, 2 * len(_xs))
                    _t4n = len(_t4)
                _d5 = ((n + k) - i)
                _num7 += (((_t4[k] if 0 <= k < _t4n else (0 if _t4n else _b_ext(n, k)))*(_t4[_d5] if 0 <= _d5 < _t4n else (0 if _t4n else _b_ext(n, _d5))))*((n + (2*k)) - i))
                _k6 += 1
            _d9 = (i - 1)
            if _t10 is None:
                _t10 = _binomial_table(((2*n) - 2), 2 * len(_xs))
                _t10n = len(_t10)
            _pairs.append((_num7, (((n + 1)*catalan(n))*(_t10[_d9] if 0 <= _d9 < _t10n else (0 if _t10n else binomial(((2*n) - 2), _d9))))))
        return _pairs
    def constraint(n, i):
        return i <= n
    def admit(n, _xs):
        return [i for i in _xs if i <= n]
    return {'lhs': lhs, 'rhs': rhs, 'line': line, 'constraint': constraint, 'admit': admit}


# thm-square-sum
def _build_12(Fraction, _lcm, _partials, DomainError):
    _rs5 = object()
    _rs12 = object()
    def lhs(m, n):
        _store = _partials()
        _k2, _num3, _den4 = _store.get((_rs5, m), (None, 0, 1))
        if _k2 is None or _k2 > n + 1:
            _k2, _num3, _den4 = 0, 0, 1
        while _k2 <= n:
            k = _k2
            _num3 += ((_d1 := _c_ext(m, k))*_d1)
            _k2 += 1
        _store[(_rs5, m)] = _k2, _num3, _den4
        return _num3
    def rhs(m, n):
        _d7 = (n - 1)
        _store = _partials()
        _k9, _num10, _den11 = _store.get((_rs12, m), (None, 0, 1))
        if _k9 is None or _k9 > _d7 + 1:
            _k9, _num10, _den11 = 0, 0, 1
        while _k9 <= _d7:
            k = _k9
            _num10 += ((_d8 := binomial((m - 1), k))*_d8)
            _k9 += 1
        _store[(_rs12, m)] = _k9, _num10, _den11
        return Fraction((((m - (2*n))*((_d6 := binomial((m - 1), n))*_d6)) + (2*_num10)), m)
    def line(m, _xs):
        _k15 = None
        _k22 = None
        _t13 = None
        _t18 = None
        _pairs = []
        for n in _xs:
            if _k15 is None or _k15 > n + 1:
                _k15, _num16, _den17 = 0, 0, 1
            while _k15 <= n:
                k = _k15
                if _t13 is None:
                    _t13 = _c_table(m, 2 * len(_xs))
                    _t13n = len(_t13)
                _num16 += ((_d14 := (_t13[k] if 0 <= k < _t13n else (0 if _t13n else _c_ext(m, k))))*_d14)
                _k15 += 1
            if _t18 is None:
                _t18 = _binomial_table((m - 1), 2 * len(_xs))
                _t18n = len(_t18)
            _d20 = (n - 1)
            if _k22 is None or _k22 > _d20 + 1:
                _k22, _num23, _den24 = 0, 0, 1
            while _k22 <= _d20:
                k = _k22
                if _t18 is None:
                    _t18 = _binomial_table((m - 1), 2 * len(_xs))
                    _t18n = len(_t18)
                _num23 += ((_d21 := (_t18[k] if 0 <= k < _t18n else (0 if _t18n else binomial((m - 1), k))))*_d21)
                _k22 += 1
            if not m:
                raise ZeroDivisionError('zero denominator')
            _pairs.append(((_num16*m), (((m - (2*n))*((_d19 := (_t18[n] if 0 <= n < _t18n else (0 if _t18n else binomial((m - 1), n))))*_d19)) + (2*_num23))))
        return _pairs
    return {'lhs': lhs, 'rhs': rhs, 'line': line}


# thm-alt-square-sum
def _build_13(Fraction, _lcm, _partials, DomainError):
    _rs5 = object()
    _rs11 = object()
    def lhs(m, n):
        _store = _partials()
        _k2, _num3, _den4 = _store.get((_rs5, m), (None, 0, 1))
        if _k2 is None or _k2 > n + 1:
            _k2, _num3, _den4 = 0, 0, 1
        while _k2 <= n:
            k = _k2
            if k < 0:
                raise DomainError('exponent k is %d, below 0' % k)
            _num3 += ((-1 if k & 1 else 1)*((_d1 := _c_ext(m, k))*_d1))
            _k2 += 1
        _store[(_rs5, m)] = _k2, _num3, _den4
        return _num3
    def rhs(m, n):
        if n < 0:
            raise DomainError('exponent n is %d, below 0' % n)
        _store = _partials()
        _k8, _num9, _den10 = _store.get((_rs11, m), (None, 0, 1))
        if _k8 is None or _k8 > n + 1:
            _k8, _num9, _den10 = 0, 0, 1
        while _k8 <= n:
            k = _k8
            if k < 0:
                raise DomainError('exponent k is %d, below 0' % k)
            _num9 += ((-1 if k & 1 else 1)*((_d7 := binomial(m, k))*_d7))
            _k8 += 1
        _store[(_rs11, m)] = _k8, _num9, _den10
        return (((2*(-1 if n & 1 else 1))*((_d6 := binomial((m - 1), n))*_d6)) - _num9)
    def line(m, _xs):
        _k14 = None
        _k21 = None
        _t12 = None
        _t17 = None
        _t19 = None
        _pairs = []
        for n in _xs:
            if _k14 is None or _k14 > n + 1:
                _k14, _num15, _den16 = 0, 0, 1
            while _k14 <= n:
                k = _k14
                if k < 0:
                    raise DomainError('exponent k is %d, below 0' % k)
                if _t12 is None:
                    _t12 = _c_table(m, 2 * len(_xs))
                    _t12n = len(_t12)
                _num15 += ((-1 if k & 1 else 1)*((_d13 := (_t12[k] if 0 <= k < _t12n else (0 if _t12n else _c_ext(m, k))))*_d13))
                _k14 += 1
            if n < 0:
                raise DomainError('exponent n is %d, below 0' % n)
            if _t17 is None:
                _t17 = _binomial_table((m - 1), 2 * len(_xs))
                _t17n = len(_t17)
            if _k21 is None or _k21 > n + 1:
                _k21, _num22, _den23 = 0, 0, 1
            while _k21 <= n:
                k = _k21
                if k < 0:
                    raise DomainError('exponent k is %d, below 0' % k)
                if _t19 is None:
                    _t19 = _binomial_table(m, 2 * len(_xs))
                    _t19n = len(_t19)
                _num22 += ((-1 if k & 1 else 1)*((_d20 := (_t19[k] if 0 <= k < _t19n else (0 if _t19n else binomial(m, k))))*_d20))
                _k21 += 1
            _pairs.append((_num15, (((2*(-1 if n & 1 else 1))*((_d18 := (_t17[n] if 0 <= n < _t17n else (0 if _t17n else binomial((m - 1), n))))*_d18)) - _num22)))
        return _pairs
    return {'lhs': lhs, 'rhs': rhs, 'line': line}


# cor-square-i
def _build_14(Fraction, _lcm, _partials, DomainError):
    def lhs(n):
        _k2, _num3, _den4 = 0, 0, 1
        while _k2 <= n:
            k = _k2
            _num3 += ((_d1 := _c_ext(n, k))*_d1)
            _k2 += 1
        return _num3
    def rhs(n):
        return (2*catalan((n - 1)))
    def line(_xs):
        _pairs = []
        for n in _xs:
            _t5 = None
            _k7, _num8, _den9 = 0, 0, 1
            while _k7 <= n:
                k = _k7
                if _t5 is None:
                    _t5 = _c_table(n, 2 * (n - k + 1))
                    _t5n = len(_t5)
                _num8 += ((_d6 := (_t5[k] if 0 <= k < _t5n else (0 if _t5n else _c_ext(n, k))))*_d6)
                _k7 += 1
            _pairs.append((_num8, (2*catalan((n - 1)))))
        return _pairs
    return {'lhs': lhs, 'rhs': rhs, 'line': line}


# cor-square-iv
def _build_15(Fraction, _lcm, _partials, DomainError):
    def lhs(n):
        _k2, _num3, _den4 = 1, 0, 1
        while _k2 <= n:
            k = _k2
            if k < 0:
                raise DomainError('exponent k is %d, below 0' % k)
            _num3 += ((-1 if k & 1 else 1)*((_d1 := _b_ext(n, k))*_d1))
            _k2 += 1
        return _num3
    def rhs(n):
        return Fraction(((-(n + 1))*catalan(n)), 2)
    def line(_xs):
        _pairs = []
        for n in _xs:
            _t5 = None
            _k7, _num8, _den9 = 1, 0, 1
            while _k7 <= n:
                k = _k7
                if k < 0:
                    raise DomainError('exponent k is %d, below 0' % k)
                if _t5 is None:
                    _t5 = _b_table(n, 2 * (n - k + 1))
                    _t5n = len(_t5)
                _num8 += ((-1 if k & 1 else 1)*((_d6 := (_t5[k] if 0 <= k < _t5n else (0 if _t5n else _b_ext(n, k))))*_d6))
                _k7 += 1
            if not 2:
                raise ZeroDivisionError('zero denominator')
            _pairs.append(((_num8*2), ((-(n + 1))*catalan(n))))
        return _pairs
    return {'lhs': lhs, 'rhs': rhs, 'line': line}


# thm-square-decomp-i
def _build_16(Fraction, _lcm, _partials, DomainError):
    _rs6 = object()
    _rs13 = object()
    def lhs(m, n):
        return ((_d1 := binomial(m, n))*_d1)
    def rhs(m, n):
        _store = _partials()
        _k3, _num4, _den5 = _store.get((_rs6, n), (None, 0, 1))
        if _k3 is None or _k3 > m + 1:
            _k3, _num4, _den5 = n, 0, 1
        while _k3 <= m:
            j = _k3
            _top, _bottom = (((2*j) - n)*((_d2 := binomial((j - 1), (n - 1)))*_d2)), n
            if _bottom != _den5:
                if _den5 % _bottom:
                    _grown = _lcm(_den5, _bottom)
                    _num4 *= _grown // _den5
                    _den5 = _grown
                _top *= _den5 // _bottom
            _num4 += _top
            _k3 += 1
        _store[(_rs6, n)] = _k3, _num4, _den5
        return Fraction(_num4, _den5)
    def line(m, _xs):
        _t7 = None
        _pairs = []
        for n in _xs:
            if _t7 is None:
                _t7 = _binomial_table(m, 2 * len(_xs))
                _t7n = len(_t7)
            _store = _partials()
            _k10, _num11, _den12 = _store.get((_rs13, n), (None, 0, 1))
            if _k10 is None or _k10 > m + 1:
                _k10, _num11, _den12 = n, 0, 1
            while _k10 <= m:
                j = _k10
                _top, _bottom = (((2*j) - n)*((_d9 := binomial((j - 1), (n - 1)))*_d9)), n
                if _bottom != _den12:
                    if _den12 % _bottom:
                        _grown = _lcm(_den12, _bottom)
                        _num11 *= _grown // _den12
                        _den12 = _grown
                    _top *= _den12 // _bottom
                _num11 += _top
                _k10 += 1
            _store[(_rs13, n)] = _k10, _num11, _den12
            if not _den12:
                raise ZeroDivisionError('zero denominator')
            _pairs.append(((((_d8 := (_t7[n] if 0 <= n < _t7n else (0 if _t7n else binomial(m, n))))*_d8)*_den12), _num11))
        return _pairs
    def constraint(m, n):
        return m >= n
    def admit(m, _xs):
        return [n for n in _xs if m >= n]
    return {'lhs': lhs, 'rhs': rhs, 'line': line, 'constraint': constraint, 'admit': admit}


# thm-square-decomp-ii
def _build_17(Fraction, _lcm, _partials, DomainError):
    def lhs(n):
        return ((_d1 := binomial((2*n), n))*_d1)
    def rhs(n):
        _k3, _num4, _den5 = 0, 0, 1
        while _k3 <= n:
            k = _k3
            _top, _bottom = (((3*n) - (2*k))*((_d2 := binomial((((2*n) - 1) - k), (n - 1)))*_d2)), n
            if _bottom != _den5:
                if _den5 % _bottom:
                    _grown = _lcm(_den5, _bottom)
                    _num4 *= _grown // _den5
                    _den5 = _grown
                _top *= _den5 // _bottom
            _num4 += _top
            _k3 += 1
        return Fraction(_num4, _den5)
    def line(_xs):
        _pairs = []
        for n in _xs:
            _d8 = ((2*n) - 1)
            _d9 = (n - 1)
            _k13, _num14, _den15 = 0, 0, 1
            _h11 = n
            _l7 = _k13
            _r10 = ()
            if _h11 - _k13 >= 31:
                if 0 <= _d9 <= (_d8 - _h11):
                    _r10 = binomials((_d8 - _k13), _d9, -1, 0, _h11 - _k13 + 1)
            while _k13 <= _h11:
                k = _k13
                _top, _bottom = (((3*n) - (2*k))*((_d12 := (_r10[k - _l7] if _r10 else binomial((_d8 - k), _d9)))*_d12)), n
                if _bottom != _den15:
                    if _den15 % _bottom:
                        _grown = _lcm(_den15, _bottom)
                        _num14 *= _grown // _den15
                        _den15 = _grown
                    _top *= _den15 // _bottom
                _num14 += _top
                _k13 += 1
            if not _den15:
                raise ZeroDivisionError('zero denominator')
            _pairs.append(((((_d6 := binomial((2*n), n))*_d6)*_den15), _num14))
        return _pairs
    return {'lhs': lhs, 'rhs': rhs, 'line': line}


# thm-square-decomp-remark
def _build_18(Fraction, _lcm, _partials, DomainError):
    def lhs(n):
        return ((_d1 := binomial((2*n), n))*_d1)
    def rhs(n):
        _k3, _num4, _den5 = 0, 0, 1
        while _k3 <= n:
            j = _k3
            _top, _bottom = ((n + (2*j))*((_d2 := binomial(((n - 1) + j), (n - 1)))*_d2)), n
            if _bottom != _den5:
                if _den5 % _bottom:
                    _grown = _lcm(_den5, _bottom)
                    _num4 *= _grown // _den5
                    _den5 = _grown
                _top *= _den5 // _bottom
            _num4 += _top
            _k3 += 1
        return Fraction(_num4, _den5)
    def line(_xs):
        _pairs = []
        for n in _xs:
            _d8 = (n - 1)
            _d9 = (n - 1)
            _k12, _num13, _den14 = 0, 0, 1
            _l7 = _k12
            _r10 = ()
            if n - _k12 >= 31:
                if 0 <= _d9 <= (_k12 + _d8):
                    _r10 = binomials((_k12 + _d8), _d9, 1, 0, n - _k12 + 1)
            while _k12 <= n:
                j = _k12
                _top, _bottom = ((n + (2*j))*((_d11 := (_r10[j - _l7] if _r10 else binomial((j + _d8), _d9)))*_d11)), n
                if _bottom != _den14:
                    if _den14 % _bottom:
                        _grown = _lcm(_den14, _bottom)
                        _num13 *= _grown // _den14
                        _den14 = _grown
                    _top *= _den14 // _bottom
                _num13 += _top
                _k12 += 1
            if not _den14:
                raise ZeroDivisionError('zero denominator')
            _pairs.append(((((_d6 := binomial((2*n), n))*_d6)*_den14), _num13))
        return _pairs
    return {'lhs': lhs, 'rhs': rhs, 'line': line}


# eq-vandermonde
def _build_19(Fraction, _lcm, _partials, DomainError):
    def lhs(n):
        _k2, _num3, _den4 = 0, 0, 1
        while _k2 <= n:
            k = _k2
            _num3 += ((_d1 := binomial(n, k))*_d1)
            _k2 += 1
        return _num3
    def rhs(n):
        return binomial((2*n), n)
    def line(_xs):
        _pairs = []
        for n in _xs:
            _t5 = None
            _k7, _num8, _den9 = 0, 0, 1
            while _k7 <= n:
                k = _k7
                if _t5 is None:
                    _t5 = _binomial_table(n, 2 * (n - k + 1))
                    _t5n = len(_t5)
                _num8 += ((_d6 := (_t5[k] if 0 <= k < _t5n else (0 if _t5n else binomial(n, k))))*_d6)
                _k7 += 1
            _pairs.append((_num8, binomial((2*n), n)))
        return _pairs
    return {'lhs': lhs, 'rhs': rhs, 'line': line}


# eq-alt-square
def _build_20(Fraction, _lcm, _partials, DomainError):
    def lhs(n):
        _d1 = (2*n)
        _k3, _num4, _den5 = 0, 0, 1
        while _k3 <= _d1:
            k = _k3
            if k < 0:
                raise DomainError('exponent k is %d, below 0' % k)
            _num4 += ((-1 if k & 1 else 1)*((_d2 := binomial((2*n), k))*_d2))
            _k3 += 1
        return _num4
    def rhs(n):
        if n < 0:
            raise DomainError('exponent n is %d, below 0' % n)
        return ((-1 if n & 1 else 1)*binomial((2*n), n))
    def line(_xs):
        _pairs = []
        for n in _xs:
            _d6 = (2*n)
            _t7 = None
            _k9, _num10, _den11 = 0, 0, 1
            while _k9 <= _d6:
                k = _k9
                if k < 0:
                    raise DomainError('exponent k is %d, below 0' % k)
                if _t7 is None:
                    _t7 = _binomial_table((2*n), 2 * (_d6 - k + 1))
                    _t7n = len(_t7)
                _num10 += ((-1 if k & 1 else 1)*((_d8 := (_t7[k] if 0 <= k < _t7n else (0 if _t7n else binomial((2*n), k))))*_d8))
                _k9 += 1
            if n < 0:
                raise DomainError('exponent n is %d, below 0' % n)
            _pairs.append((_num10, ((-1 if n & 1 else 1)*binomial((2*n), n))))
        return _pairs
    return {'lhs': lhs, 'rhs': rhs, 'line': line}


# eq-amm
def _build_21(Fraction, _lcm, _partials, DomainError):
    _rs5 = object()
    def lhs(m, n):
        _store = _partials()
        _k2, _num3, _den4 = _store.get((_rs5, m), (None, 0, 1))
        if _k2 is None or _k2 > n + 1:
            _k2, _num3, _den4 = 0, 0, 1
        while _k2 <= n:
            k = _k2
            _num3 += ((m - (2*k))*((_d1 := binomial(m, k))*_d1*_d1))
            _k2 += 1
        _store[(_rs5, m)] = _k2, _num3, _den4
        return _num3
    def rhs(m, n):
        _d6 = (m - 1)
        _k7, _num8, _den9 = 0, 0, 1
        while _k7 <= _d6:
            j = _k7
            _num8 += (binomial(j, n)*binomial(j, ((m - n) - 1)))
            _k7 += 1
        return (((m - n)*binomial(m, n))*_num8)
    def line(m, _xs):
        _k12 = None
        _t10 = None
        _pairs = []
        for n in _xs:
            if _k12 is None or _k12 > n + 1:
                _k12, _num13, _den14 = 0, 0, 1
            while _k12 <= n:
                k = _k12
                if _t10 is None:
                    _t10 = _binomial_table(m, 2 * len(_xs))
                    _t10n = len(_t10)
                _num13 += ((m - (2*k))*((_d11 := (_t10[k] if 0 <= k < _t10n else (0 if _t10n else binomial(m, k))))*_d11*_d11))
                _k12 += 1
            if _t10 is None:
                _t10 = _binomial_table(m, 2 * len(_xs))
                _t10n = len(_t10)
            _d15 = (m - 1)
            _d18 = ((m - n) - 1)
            _k20, _num21, _den22 = 0, 0, 1
            if _k20 >= 0:
                if _k20 < n:
                    _k20 = n
                if _k20 < _d18:
                    _k20 = _d18
                if n < 0 or _d18 < 0:
                    _k20 = _d15 + 1
            _l16 = _k20
            _r17 = _r19 = ()
            if _d15 - _k20 >= 31:
                if 0 <= n <= _k20:
                    _r17 = binomials(_k20, n, 1, 0, _d15 - _k20 + 1)
                if 0 <= _d18 <= _k20:
                    _r19 = binomials(_k20, _d18, 1, 0, _d15 - _k20 + 1)
            while _k20 <= _d15:
                j = _k20
                _num21 += ((_r17[j - _l16] if _r17 else binomial(j, n))*(_r19[j - _l16] if _r19 else binomial(j, _d18)))
                _k20 += 1
            _pairs.append((_num13, (((m - n)*(_t10[n] if 0 <= n < _t10n else (0 if _t10n else binomial(m, n))))*_num21)))
        return _pairs
    return {'lhs': lhs, 'rhs': rhs, 'line': line}


# thm-cube-sum
def _build_22(Fraction, _lcm, _partials, DomainError):
    _rs5 = object()
    def lhs(m, n):
        _store = _partials()
        _k2, _num3, _den4 = _store.get((_rs5, m), (None, 0, 1))
        if _k2 is None or _k2 > n + 1:
            _k2, _num3, _den4 = 0, 0, 1
        while _k2 <= n:
            k = _k2
            _num3 += ((_d1 := _c_ext(m, k))*_d1*_d1)
            _k2 += 1
        _store[(_rs5, m)] = _k2, _num3, _den4
        return _num3
    def rhs(m, n):
        _d7 = (m - 1)
        _k8, _num9, _den10 = 0, 0, 1
        while _k8 <= _d7:
            j = _k8
            _num9 += (binomial(j, n)*binomial(j, ((m - n) - 1)))
            _k8 += 1
        return ((4*((_d6 := binomial((m - 1), n))*_d6*_d6)) - ((3*binomial((m - 1), n))*_num9))
    def line(m, _xs):
        _k13 = None
        _t11 = None
        _t16 = None
        _pairs = []
        for n in _xs:
            if _k13 is None or _k13 > n + 1:
                _k13, _num14, _den15 = 0, 0, 1
            while _k13 <= n:
                k = _k13
                if _t11 is None:
                    _t11 = _c_table(m, 2 * len(_xs))
                    _t11n = len(_t11)
                _num14 += ((_d12 := (_t11[k] if 0 <= k < _t11n else (0 if _t11n else _c_ext(m, k))))*_d12*_d12)
                _k13 += 1
            if _t16 is None:
                _t16 = _binomial_table((m - 1), 2 * len(_xs))
                _t16n = len(_t16)
            _d18 = (m - 1)
            _d21 = ((m - n) - 1)
            _k23, _num24, _den25 = 0, 0, 1
            if _k23 >= 0:
                if _k23 < n:
                    _k23 = n
                if _k23 < _d21:
                    _k23 = _d21
                if n < 0 or _d21 < 0:
                    _k23 = _d18 + 1
            _l19 = _k23
            _r20 = _r22 = ()
            if _d18 - _k23 >= 31:
                if 0 <= n <= _k23:
                    _r20 = binomials(_k23, n, 1, 0, _d18 - _k23 + 1)
                if 0 <= _d21 <= _k23:
                    _r22 = binomials(_k23, _d21, 1, 0, _d18 - _k23 + 1)
            while _k23 <= _d18:
                j = _k23
                _num24 += ((_r20[j - _l19] if _r20 else binomial(j, n))*(_r22[j - _l19] if _r22 else binomial(j, _d21)))
                _k23 += 1
            _pairs.append((_num14, ((4*((_d17 := (_t16[n] if 0 <= n < _t16n else (0 if _t16n else binomial((m - 1), n))))*_d17*_d17)) - ((3*(_t16[n] if 0 <= n < _t16n else (0 if _t16n else binomial((m - 1), n))))*_num24))))
        return _pairs
    return {'lhs': lhs, 'rhs': rhs, 'line': line}


# thm-alt-cube-sum
def _build_23(Fraction, _lcm, _partials, DomainError):
    _rs5 = object()
    _rs12 = object()
    def lhs(m, n):
        _store = _partials()
        _k2, _num3, _den4 = _store.get((_rs5, m), (None, 0, 1))
        if _k2 is None or _k2 > n + 1:
            _k2, _num3, _den4 = 0, 0, 1
        while _k2 <= n:
            k = _k2
            if k < 0:
                raise DomainError('exponent k is %d, below 0' % k)
            _num3 += ((-1 if k & 1 else 1)*((_d1 := _c_ext(m, k))*_d1*_d1))
            _k2 += 1
        _store[(_rs5, m)] = _k2, _num3, _den4
        return _num3
    def rhs(m, n):
        if n < 0:
            raise DomainError('exponent n is %d, below 0' % n)
        _d7 = (n - 1)
        _store = _partials()
        _k9, _num10, _den11 = _store.get((_rs12, m), (None, 0, 1))
        if _k9 is None or _k9 > _d7 + 1:
            _k9, _num10, _den11 = 0, 0, 1
        while _k9 <= _d7:
            k = _k9
            if k < 0:
                raise DomainError('exponent k is %d, below 0' % k)
            _num10 += ((-1 if k & 1 else 1)*((_d8 := binomial((m - 1), k))*_d8*_d8))
            _k9 += 1
        _store[(_rs12, m)] = _k9, _num10, _den11
        return Fraction(((((m - (3*n))*(-1 if n & 1 else 1))*((_d6 := binomial((m - 1), n))*_d6*_d6)) - ((m - 3)*_num10)), m)
    def line(m, _xs):
        _k15 = None
        _k22 = None
        _t13 = None
        _t18 = None
        _pairs = []
        for n in _xs:
            if _k15 is None or _k15 > n + 1:
                _k15, _num16, _den17 = 0, 0, 1
            while _k15 <= n:
                k = _k15
                if k < 0:
                    raise DomainError('exponent k is %d, below 0' % k)
                if _t13 is None:
                    _t13 = _c_table(m, 2 * len(_xs))
                    _t13n = len(_t13)
                _num16 += ((-1 if k & 1 else 1)*((_d14 := (_t13[k] if 0 <= k < _t13n else (0 if _t13n else _c_ext(m, k))))*_d14*_d14))
                _k15 += 1
            if n < 0:
                raise DomainError('exponent n is %d, below 0' % n)
            if _t18 is None:
                _t18 = _binomial_table((m - 1), 2 * len(_xs))
                _t18n = len(_t18)
            _d20 = (n - 1)
            if _k22 is None or _k22 > _d20 + 1:
                _k22, _num23, _den24 = 0, 0, 1
            while _k22 <= _d20:
                k = _k22
                if k < 0:
                    raise DomainError('exponent k is %d, below 0' % k)
                if _t18 is None:
                    _t18 = _binomial_table((m - 1), 2 * len(_xs))
                    _t18n = len(_t18)
                _num23 += ((-1 if k & 1 else 1)*((_d21 := (_t18[k] if 0 <= k < _t18n else (0 if _t18n else binomial((m - 1), k))))*_d21*_d21))
                _k22 += 1
            if not m:
                raise ZeroDivisionError('zero denominator')
            _pairs.append(((_num16*m), ((((m - (3*n))*(-1 if n & 1 else 1))*((_d19 := (_t18[n] if 0 <= n < _t18n else (0 if _t18n else binomial((m - 1), n))))*_d19*_d19)) - ((m - 3)*_num23))))
        return _pairs
    return {'lhs': lhs, 'rhs': rhs, 'line': line}


# cor-cube-B
def _build_24(Fraction, _lcm, _partials, DomainError):
    def lhs(n):
        _k2, _num3, _den4 = 0, 0, 1
        while _k2 <= n:
            k = _k2
            _num3 += ((_d1 := _b_ext(n, k))*_d1*_d1)
            _k2 += 1
        return _num3
    def rhs(n):
        _d6 = ((2*n) - 1)
        _k7, _num8, _den9 = n, 0, 1
        while _k7 <= _d6:
            j = _k7
            _num8 += (binomial(j, n)*binomial(j, (n - 1)))
            _k7 += 1
        return Fraction((((_d5 := binomial((2*n), n))*_d5*_d5) - ((3*binomial((2*n), n))*_num8)), 2)
    def line(_xs):
        _pairs = []
        for n in _xs:
            _t10 = None
            _k12, _num13, _den14 = 0, 0, 1
            while _k12 <= n:
                k = _k12
                if _t10 is None:
                    _t10 = _b_table(n, 2 * (n - k + 1))
                    _t10n = len(_t10)
                _num13 += ((_d11 := (_t10[k] if 0 <= k < _t10n else (0 if _t10n else _b_ext(n, k))))*_d11*_d11)
                _k12 += 1
            _d16 = ((2*n) - 1)
            _d19 = (n - 1)
            _k21, _num22, _den23 = n, 0, 1
            if _k21 >= 0:
                if _k21 < n:
                    _k21 = n
                if _k21 < _d19:
                    _k21 = _d19
                if n < 0 or _d19 < 0:
                    _k21 = _d16 + 1
            _l17 = _k21
            _r18 = _r20 = ()
            if _d16 - _k21 >= 31:
                if 0 <= n <= _k21:
                    _r18 = binomials(_k21, n, 1, 0, _d16 - _k21 + 1)
                if 0 <= _d19 <= _k21:
                    _r20 = binomials(_k21, _d19, 1, 0, _d16 - _k21 + 1)
            while _k21 <= _d16:
                j = _k21
                _num22 += ((_r18[j - _l17] if _r18 else binomial(j, n))*(_r20[j - _l17] if _r20 else binomial(j, _d19)))
                _k21 += 1
            if not 2:
                raise ZeroDivisionError('zero denominator')
            _pairs.append(((_num13*2), (((_d15 := binomial((2*n), n))*_d15*_d15) - ((3*binomial((2*n), n))*_num22))))
        return _pairs
    return {'lhs': lhs, 'rhs': rhs, 'line': line}


# cor-cube-A
def _build_25(Fraction, _lcm, _partials, DomainError):
    def lhs(n):
        _d1 = (n + 1)
        _k3, _num4, _den5 = 1, 0, 1
        while _k3 <= _d1:
            k = _k3
            _num4 += ((_d2 := _a_ext(n, k))*_d2*_d2)
            _k3 += 1
        return _num4
    def rhs(n):
        _d7 = ((2*n) - 1)
        _k9, _num10, _den11 = n, 0, 1
        while _k9 <= _d7:
            j = _k9
            _num10 += ((_d8 := binomial(j, n))*_d8)
            _k9 += 1
        return (((_d6 := binomial((2*n), n))*_d6*_d6) - ((3*binomial((2*n), n))*_num10))
    def line(_xs):
        _pairs = []
        for n in _xs:
            _d12 = (n + 1)
            _t13 = None
            _k15, _num16, _den17 = 1, 0, 1
            while _k15 <= _d12:
                k = _k15
                if _t13 is None:
                    _t13 = _a_table(n, 2 * (_d12 - k + 1))
                    _t13n = len(_t13)
                _num16 += ((_d14 := (_t13[k] if 0 <= k < _t13n else (0 if _t13n else _a_ext(n, k))))*_d14*_d14)
                _k15 += 1
            _d19 = ((2*n) - 1)
            _k23, _num24, _den25 = n, 0, 1
            if _k23 >= 0:
                if _k23 < n:
                    _k23 = n
                if n < 0:
                    _k23 = _d19 + 1
            _l20 = _k23
            _r21 = ()
            if _d19 - _k23 >= 31:
                if 0 <= n <= _k23:
                    _r21 = binomials(_k23, n, 1, 0, _d19 - _k23 + 1)
            while _k23 <= _d19:
                j = _k23
                _num24 += ((_d22 := (_r21[j - _l20] if _r21 else binomial(j, n)))*_d22)
                _k23 += 1
            _pairs.append((_num16, (((_d18 := binomial((2*n), n))*_d18*_d18) - ((3*binomial((2*n), n))*_num24))))
        return _pairs
    return {'lhs': lhs, 'rhs': rhs, 'line': line}


# cor-alt-cube-A
def _build_26(Fraction, _lcm, _partials, DomainError):
    def lhs(n):
        _d1 = (n + 1)
        _k3, _num4, _den5 = 1, 0, 1
        while _k3 <= _d1:
            k = _k3
            if k < 0:
                raise DomainError('exponent k is %d, below 0' % k)
            _num4 += ((-1 if k & 1 else 1)*((_d2 := _a_ext(n, k))*_d2*_d2))
            _k3 += 1
        return _num4
    def rhs(n):
        return Fraction((((n - 1)*binomial((2*n), n))*binomial((3*n), n)), ((2*n) + 1))
    def line(_xs):
        _pairs = []
        for n in _xs:
            _d6 = (n + 1)
            _t7 = None
            _k9, _num10, _den11 = 1, 0, 1
            while _k9 <= _d6:
                k = _k9
                if k < 0:
                    raise DomainError('exponent k is %d, below 0' % k)
                if _t7 is None:
                    _t7 = _a_table(n, 2 * (_d6 - k + 1))
                    _t7n = len(_t7)
                _num10 += ((-1 if k & 1 else 1)*((_d8 := (_t7[k] if 0 <= k < _t7n else (0 if _t7n else _a_ext(n, k))))*_d8*_d8))
                _k9 += 1
            _d12 = ((2*n) + 1)
            if not _d12:
                raise ZeroDivisionError('zero denominator')
            _pairs.append(((_num10*_d12), (((n - 1)*binomial((2*n), n))*binomial((3*n), n))))
        return _pairs
    return {'lhs': lhs, 'rhs': rhs, 'line': line}


# eq-dixon
def _build_27(Fraction, _lcm, _partials, DomainError):
    def lhs(n):
        _d1 = (2*n)
        _k3, _num4, _den5 = 0, 0, 1
        while _k3 <= _d1:
            k = _k3
            if k < 0:
                raise DomainError('exponent k is %d, below 0' % k)
            _num4 += ((-1 if k & 1 else 1)*((_d2 := binomial((2*n), k))*_d2*_d2))
            _k3 += 1
        return _num4
    def rhs(n):
        if n < 0:
            raise DomainError('exponent n is %d, below 0' % n)
        return (((-1 if n & 1 else 1)*binomial((2*n), n))*binomial((3*n), n))
    def line(_xs):
        _pairs = []
        for n in _xs:
            _d6 = (2*n)
            _t7 = None
            _k9, _num10, _den11 = 0, 0, 1
            while _k9 <= _d6:
                k = _k9
                if k < 0:
                    raise DomainError('exponent k is %d, below 0' % k)
                if _t7 is None:
                    _t7 = _binomial_table((2*n), 2 * (_d6 - k + 1))
                    _t7n = len(_t7)
                _num10 += ((-1 if k & 1 else 1)*((_d8 := (_t7[k] if 0 <= k < _t7n else (0 if _t7n else binomial((2*n), k))))*_d8*_d8))
                _k9 += 1
            if n < 0:
                raise DomainError('exponent n is %d, below 0' % n)
            _pairs.append((_num10, (((-1 if n & 1 else 1)*binomial((2*n), n))*binomial((3*n), n))))
        return _pairs
    return {'lhs': lhs, 'rhs': rhs, 'line': line}


# thm-b-cube
def _build_28(Fraction, _lcm, _partials, DomainError):
    def lhs(n):
        _k2, _num3, _den4 = 1, 0, 1
        while _k2 <= n:
            k = _k2
            _num3 += ((_d1 := _b_ext(n, k))*_d1*_d1)
            _k2 += 1
        return _num3
    def rhs(n):
        _k6, _num7, _den8 = 1, 0, 1
        while _k6 <= n:
            k = _k6
            _num7 += (k*((_d5 := binomial((((2*n) - k) - 1), (n - 1)))*_d5))
            _k6 += 1
        return Fraction((binomial((2*n), n)*_num7), (2*n))
    def line(_xs):
        _pairs = []
        for n in _xs:
            _t9 = None
            _k11, _num12, _den13 = 1, 0, 1
            while _k11 <= n:
                k = _k11
                if _t9 is None:
                    _t9 = _b_table(n, 2 * (n - k + 1))
                    _t9n = len(_t9)
                _num12 += ((_d10 := (_t9[k] if 0 <= k < _t9n else (0 if _t9n else _b_ext(n, k))))*_d10*_d10)
                _k11 += 1
            _d15 = ((2*n) - 1)
            _d16 = (n - 1)
            _k20, _num21, _den22 = 1, 0, 1
            _h18 = n
            if (_d15 - _h18) >= 0:
                if _h18 > (_d15 - _d16):
                    _h18 = (_d15 - _d16)
                if _d16 < 0:
                    _k20 = _h18 + 1
            _l14 = _k20
            _r17 = ()
            if _h18 - _k20 >= 31:
                if 0 <= _d16 <= (_d15 - _h18):
                    _r17 = binomials((_d15 - _k20), _d16, -1, 0, _h18 - _k20 + 1)
            while _k20 <= _h18:
                k = _k20
                _num21 += (k*((_d19 := (_r17[k - _l14] if _r17 else binomial((_d15 - k), _d16)))*_d19))
                _k20 += 1
            _d23 = (2*n)
            if not _d23:
                raise ZeroDivisionError('zero denominator')
            _pairs.append(((_num12*_d23), (binomial((2*n), n)*_num21)))
        return _pairs
    return {'lhs': lhs, 'rhs': rhs, 'line': line}


# rem-b-cube-factored
def _build_29(Fraction, _lcm, _partials, DomainError):
    def lhs(n):
        _k2, _num3, _den4 = 1, 0, 1
        while _k2 <= n:
            k = _k2
            _num3 += ((_d1 := _b_ext(n, k))*_d1*_d1)
            _k2 += 1
        return _num3
    def rhs(n):
        return Fraction((((n + 1)*catalan(n))*seq_b(n)), 2)
    def line(_xs):
        _pairs = []
        for n in _xs:
            _t5 = None
            _k7, _num8, _den9 = 1, 0, 1
            while _k7 <= n:
                k = _k7
                if _t5 is None:
                    _t5 = _b_table(n, 2 * (n - k + 1))
                    _t5n = len(_t5)
                _num8 += ((_d6 := (_t5[k] if 0 <= k < _t5n else (0 if _t5n else _b_ext(n, k))))*_d6*_d6)
                _k7 += 1
            if not 2:
                raise ZeroDivisionError('zero denominator')
            _pairs.append(((_num8*2), (((n + 1)*catalan(n))*seq_b(n))))
        return _pairs
    return {'lhs': lhs, 'rhs': rhs, 'line': line}


# rem-a-cube-factored
def _build_30(Fraction, _lcm, _partials, DomainError):
    def lhs(n):
        _d1 = (n + 1)
        _k3, _num4, _den5 = 1, 0, 1
        while _k3 <= _d1:
            k = _k3
            _num4 += ((_d2 := _a_ext(n, k))*_d2*_d2)
            _k3 += 1
        return _num4
    def rhs(n):
        return (((n + 1)*catalan(n))*(((_d6 := ((2*(n + 1))*catalan(n)))*_d6) - (3*seq_a(n))))
    def line(_xs):
        _pairs = []
        for n in _xs:
            _d7 = (n + 1)
            _t8 = None
            _k10, _num11, _den12 = 1, 0, 1
            while _k10 <= _d7:
                k = _k10
                if _t8 is None:
                    _t8 = _a_table(n, 2 * (_d7 - k + 1))
                    _t8n = len(_t8)
                _num11 += ((_d9 := (_t8[k] if 0 <= k < _t8n else (0 if _t8n else _a_ext(n, k))))*_d9*_d9)
                _k10 += 1
            _pairs.append((_num11, (((n + 1)*catalan(n))*(((_d13 := ((2*(n + 1))*catalan(n)))*_d13) - (3*seq_a(n))))))
        return _pairs
    return {'lhs': lhs, 'rhs': rhs, 'line': line}


# thm-harmonic
def _build_31(Fraction, _lcm, _partials, DomainError):
    _rs6 = object()
    _rs12 = object()
    def lhs(m, n):
        _store = _partials()
        _k3, _num4, _den5 = _store.get((_rs6, m), (None, 0, 1))
        if _k3 is None or _k3 > n + 1:
            _k3, _num4, _den5 = 1, 0, 1
        while _k3 <= n:
            k = _k3
            _p1, _q2 = harmonic(k).as_integer_ratio()
            _top, _bottom = (_c_ext(m, k)*_p1), _q2
            if _bottom != _den5:
                if _den5 % _bottom:
                    _grown = _lcm(_den5, _bottom)
                    _num4 *= _grown // _den5
                    _den5 = _grown
                _top *= _den5 // _bottom
            _num4 += _top
            _k3 += 1
        _store[(_rs6, m)] = _k3, _num4, _den5
        return Fraction(_num4, _den5)
    def rhs(m, n):
        _p7, _q8 = harmonic(n).as_integer_ratio()
        _store = _partials()
        _k9, _num10, _den11 = _store.get((_rs12, m), (None, 0, 1))
        if _k9 is None or _k9 > n + 1:
            _k9, _num10, _den11 = 1, 0, 1
        while _k9 <= n:
            k = _k9
            _num10 += binomial(m, k)
            _k9 += 1
        _store[(_rs12, m)] = _k9, _num10, _den11
        return Fraction((((binomial((m - 1), n)*_p7)*m) - (_num10*_q8)), (_q8*m))
    def line(m, _xs):
        _k16 = None
        _k23 = None
        _t13 = None
        _t19 = None
        _t22 = None
        _pairs = []
        for n in _xs:
            if _k16 is None or _k16 > n + 1:
                _k16, _num17, _den18 = 1, 0, 1
            while _k16 <= n:
                k = _k16
                if _t13 is None:
                    _t13 = _c_table(m, 2 * len(_xs))
                    _t13n = len(_t13)
                _p14, _q15 = harmonic(k).as_integer_ratio()
                _top, _bottom = ((_t13[k] if 0 <= k < _t13n else (0 if _t13n else _c_ext(m, k)))*_p14), _q15
                if _bottom != _den18:
                    if _den18 % _bottom:
                        _grown = _lcm(_den18, _bottom)
                        _num17 *= _grown // _den18
                        _den18 = _grown
                    _top *= _den18 // _bottom
                _num17 += _top
                _k16 += 1
            if not _den18:
                raise ZeroDivisionError('zero denominator')
            if _t19 is None:
                _t19 = _binomial_table((m - 1), 2 * len(_xs))
                _t19n = len(_t19)
            _p20, _q21 = harmonic(n).as_integer_ratio()
            if _k23 is None or _k23 > n + 1:
                _k23, _num24, _den25 = 1, 0, 1
            while _k23 <= n:
                k = _k23
                if _t22 is None:
                    _t22 = _binomial_table(m, 2 * len(_xs))
                    _t22n = len(_t22)
                _num24 += (_t22[k] if 0 <= k < _t22n else (0 if _t22n else binomial(m, k)))
                _k23 += 1
            _d26 = (_q21*m)
            if not _d26:
                raise ZeroDivisionError('zero denominator')
            _pairs.append(((_num17*_d26), (((((_t19[n] if 0 <= n < _t19n else (0 if _t19n else binomial((m - 1), n)))*_p20)*m) - (_num24*_q21))*_den18)))
        return _pairs
    return {'lhs': lhs, 'rhs': rhs, 'line': line}


# cor-harmonic-C
def _build_32(Fraction, _lcm, _partials, DomainError):
    def lhs(n):
        _k3, _num4, _den5 = 1, 0, 1
        while _k3 <= n:
            k = _k3
            _p1, _q2 = harmonic(k).as_integer_ratio()
            _top, _bottom = (_c_ext(n, k)*_p1), _q2
            if _bottom != _den5:
                if _den5 % _bottom:
                    _grown = _lcm(_den5, _bottom)
                    _num4 *= _grown // _den5
                    _den5 = _grown
                _top *= _den5 // _bottom
            _num4 += _top
            _k3 += 1
        return Fraction(_num4, _den5)
    def rhs(n):
        if n < 0:
            raise DomainError('exponent n is %d, below 0' % n)
        return Fraction((1 - (2**n)), n)
    def line(_xs):
        _pairs = []
        for n in _xs:
            _t6 = None
            _k9, _num10, _den11 = 1, 0, 1
            while _k9 <= n:
                k = _k9
                if _t6 is None:
                    _t6 = _c_table(n, 2 * (n - k + 1))
                    _t6n = len(_t6)
                _p7, _q8 = harmonic(k).as_integer_ratio()
                _top, _bottom = ((_t6[k] if 0 <= k < _t6n else (0 if _t6n else _c_ext(n, k)))*_p7), _q8
                if _bottom != _den11:
                    if _den11 % _bottom:
                        _grown = _lcm(_den11, _bottom)
                        _num10 *= _grown // _den11
                        _den11 = _grown
                    _top *= _den11 // _bottom
                _num10 += _top
                _k9 += 1
            if not _den11:
                raise ZeroDivisionError('zero denominator')
            if n < 0:
                raise DomainError('exponent n is %d, below 0' % n)
            if not n:
                raise ZeroDivisionError('zero denominator')
            _pairs.append(((_num10*n), ((1 - (2**n))*_den11)))
        return _pairs
    return {'lhs': lhs, 'rhs': rhs, 'line': line}


# cor-harmonic-B
def _build_33(Fraction, _lcm, _partials, DomainError):
    def lhs(n):
        _d1 = (n - 1)
        _k4, _num5, _den6 = 0, 0, 1
        while _k4 <= _d1:
            k = _k4
            _p2, _q3 = harmonic((n - k)).as_integer_ratio()
            _top, _bottom = (_b_ext(n, k)*_p2), _q3
            if _bottom != _den6:
                if _den6 % _bottom:
                    _grown = _lcm(_den6, _bottom)
                    _num5 *= _grown // _den6
                    _den6 = _grown
                _top *= _den6 // _bottom
            _num5 += _top
            _k4 += 1
        return Fraction(_num5, _den6)
    def rhs(n):
        _p7, _q8 = harmonic(n).as_integer_ratio()
        _d9 = ((2*n) - 1)
        if _d9 < 0:
            raise DomainError('exponent 2 * n - 1 is %d, below 0' % _d9)
        _d10 = (_q8*(4*n))
        _d11 = (2*n)
        return Fraction(((((((2*n)*_p7) - _q8)*binomial((2*n), n))*_d11) - (((2**_d9) - 1)*_d10)), (_d10*_d11))
    def line(_xs):
        _pairs = []
        for n in _xs:
            _d12 = (n - 1)
            _t13 = None
            _k16, _num17, _den18 = 0, 0, 1
            while _k16 <= _d12:
                k = _k16
                if _t13 is None:
                    _t13 = _b_table(n, 2 * (_d12 - k + 1))
                    _t13n = len(_t13)
                _p14, _q15 = harmonic((n - k)).as_integer_ratio()
                _top, _bottom = ((_t13[k] if 0 <= k < _t13n else (0 if _t13n else _b_ext(n, k)))*_p14), _q15
                if _bottom != _den18:
                    if _den18 % _bottom:
                        _grown = _lcm(_den18, _bottom)
                        _num17 *= _grown // _den18
                        _den18 = _grown
                    _top *= _den18 // _bottom
                _num17 += _top
                _k16 += 1
            if not _den18:
                raise ZeroDivisionError('zero denominator')
            _p19, _q20 = harmonic(n).as_integer_ratio()
            _d21 = ((2*n) - 1)
            if _d21 < 0:
                raise DomainError('exponent 2 * n - 1 is %d, below 0' % _d21)
            _d22 = (_q20*(4*n))
            _d23 = (2*n)
            _d24 = (_d22*_d23)
            if not _d24:
                raise ZeroDivisionError('zero denominator')
            _pairs.append(((_num17*_d24), (((((((2*n)*_p19) - _q20)*binomial((2*n), n))*_d23) - (((2**_d21) - 1)*_d22))*_den18)))
        return _pairs
    return {'lhs': lhs, 'rhs': rhs, 'line': line}


# cor-harmonic-A
def _build_34(Fraction, _lcm, _partials, DomainError):
    def lhs(n):
        _k3, _num4, _den5 = 1, 0, 1
        while _k3 <= n:
            k = _k3
            _p1, _q2 = harmonic(((n - k) + 1)).as_integer_ratio()
            _top, _bottom = (_a_ext(n, k)*_p1), _q2
            if _bottom != _den5:
                if _den5 % _bottom:
                    _grown = _lcm(_den5, _bottom)
                    _num4 *= _grown // _den5
                    _den5 = _grown
                _top *= _den5 // _bottom
            _num4 += _top
            _k3 += 1
        return Fraction(_num4, _den5)
    def rhs(n):
        _p6, _q7 = harmonic(n).as_integer_ratio()
        _d8 = (2*n)
        if _d8 < 0:
            raise DomainError('exponent 2 * n is %d, below 0' % _d8)
        _d9 = ((2*n) + 1)
        return Fraction((((_p6*binomial((2*n), n))*_d9) - (((2**_d8) - 1)*_q7)), (_q7*_d9))
    def line(_xs):
        _pairs = []
        for n in _xs:
            _t10 = None
            _k13, _num14, _den15 = 1, 0, 1
            while _k13 <= n:
                k = _k13
                if _t10 is None:
                    _t10 = _a_table(n, 2 * (n - k + 1))
                    _t10n = len(_t10)
                _p11, _q12 = harmonic(((n - k) + 1)).as_integer_ratio()
                _top, _bottom = ((_t10[k] if 0 <= k < _t10n else (0 if _t10n else _a_ext(n, k)))*_p11), _q12
                if _bottom != _den15:
                    if _den15 % _bottom:
                        _grown = _lcm(_den15, _bottom)
                        _num14 *= _grown // _den15
                        _den15 = _grown
                    _top *= _den15 // _bottom
                _num14 += _top
                _k13 += 1
            if not _den15:
                raise ZeroDivisionError('zero denominator')
            _p16, _q17 = harmonic(n).as_integer_ratio()
            _d18 = (2*n)
            if _d18 < 0:
                raise DomainError('exponent 2 * n is %d, below 0' % _d18)
            _d19 = ((2*n) + 1)
            _d20 = (_q17*_d19)
            if not _d20:
                raise ZeroDivisionError('zero denominator')
            _pairs.append(((_num14*_d20), ((((_p16*binomial((2*n), n))*_d19) - (((2**_d18) - 1)*_q17))*_den15)))
        return _pairs
    return {'lhs': lhs, 'rhs': rhs, 'line': line}


# rem-ps13
def _build_35(Fraction, _lcm, _partials, DomainError):
    def lhs(n):
        _k3, _num4, _den5 = 1, 0, 1
        while _k3 <= n:
            k = _k3
            _p1, _q2 = harmonic(k).as_integer_ratio()
            _top, _bottom = (((n - (2*k))*_p1)*binomial(n, k)), _q2
            if _bottom != _den5:
                if _den5 % _bottom:
                    _grown = _lcm(_den5, _bottom)
                    _num4 *= _grown // _den5
                    _den5 = _grown
                _top *= _den5 // _bottom
            _num4 += _top
            _k3 += 1
        return Fraction(_num4, _den5)
    def rhs(n):
        if n < 0:
            raise DomainError('exponent n is %d, below 0' % n)
        return (1 - (2**n))
    def line(_xs):
        _pairs = []
        for n in _xs:
            _t8 = None
            _k9, _num10, _den11 = 1, 0, 1
            while _k9 <= n:
                k = _k9
                _p6, _q7 = harmonic(k).as_integer_ratio()
                if _t8 is None:
                    _t8 = _binomial_table(n, 2 * (n - k + 1))
                    _t8n = len(_t8)
                _top, _bottom = (((n - (2*k))*_p6)*(_t8[k] if 0 <= k < _t8n else (0 if _t8n else binomial(n, k)))), _q7
                if _bottom != _den11:
                    if _den11 % _bottom:
                        _grown = _lcm(_den11, _bottom)
                        _num10 *= _grown // _den11
                        _den11 = _grown
                    _top *= _den11 // _bottom
                _num10 += _top
                _k9 += 1
            if not _den11:
                raise ZeroDivisionError('zero denominator')
            if n < 0:
                raise DomainError('exponent n is %d, below 0' % n)
            _pairs.append((_num10, ((1 - (2**n))*_den11)))
        return _pairs
    return {'lhs': lhs, 'rhs': rhs, 'line': line}


# rel-gen-catalan
def _build_36(Fraction, _lcm, _partials, DomainError):
    def lhs(k, n):
        return _c_ext(((k*n) + 1), n)
    def rhs(k, n):
        return ((((k - 2)*n) + 1)*gen_catalan(k, n))
    def line(k, _xs):
        _pairs = []
        for n in _xs:
            _pairs.append((_c_ext(((k*n) + 1), n), ((((k - 2)*n) + 1)*gen_catalan(k, n))))
        return _pairs
    return {'lhs': lhs, 'rhs': rhs, 'line': line}


# divisibility-c
def _build_37(Fraction, _lcm, _partials, DomainError):
    _rs4 = object()
    def lhs(p, m, n):
        _store = _partials()
        _k1, _num2, _den3 = _store.get((_rs4, m, p), (None, 0, 1))
        if _k1 is None or _k1 > n + 1:
            _k1, _num2, _den3 = 0, 0, 1
        while _k1 <= n:
            k = _k1
            if p < 0:
                raise DomainError('exponent p is %d, below 0' % p)
            _num2 += (_c_ext(m, k)**p)
            _k1 += 1
        _store[(_rs4, m, p)] = _k1, _num2, _den3
        return _num2
    def rhs(p, m, n):
        return binomial((m - 1), n)
    def line(p, m, _xs):
        _k6 = None
        _t5 = None
        _t9 = None
        _pairs = []
        for n in _xs:
            if _k6 is None or _k6 > n + 1:
                _k6, _num7, _den8 = 0, 0, 1
            while _k6 <= n:
                k = _k6
                if _t5 is None:
                    _t5 = _c_table(m, 2 * len(_xs))
                    _t5n = len(_t5)
                if p < 0:
                    raise DomainError('exponent p is %d, below 0' % p)
                _num7 += ((_t5[k] if 0 <= k < _t5n else (0 if _t5n else _c_ext(m, k)))**p)
                _k6 += 1
            if _t9 is None:
                _t9 = _binomial_table((m - 1), 2 * len(_xs))
                _t9n = len(_t9)
            _pairs.append((_num7, (_t9[n] if 0 <= n < _t9n else (0 if _t9n else binomial((m - 1), n)))))
        return _pairs
    return {'lhs': lhs, 'rhs': rhs, 'line': line}


# divisibility-b
def _build_38(Fraction, _lcm, _partials, DomainError):
    def lhs(p, n):
        _k1, _num2, _den3 = 1, 0, 1
        while _k1 <= n:
            k = _k1
            if p < 0:
                raise DomainError('exponent p is %d, below 0' % p)
            _num2 += (_b_ext(n, k)**p)
            _k1 += 1
        return _num2
    def rhs(p, n):
        return binomial(((2*n) - 1), (n - 1))
    def line(p, _xs):
        _pairs = []
        for n in _xs:
            _t4 = None
            _k5, _num6, _den7 = 1, 0, 1
            while _k5 <= n:
                k = _k5
                if _t4 is None:
                    _t4 = _b_table(n, 2 * (n - k + 1))
                    _t4n = len(_t4)
                if p < 0:
                    raise DomainError('exponent p is %d, below 0' % p)
                _num6 += ((_t4[k] if 0 <= k < _t4n else (0 if _t4n else _b_ext(n, k)))**p)
                _k5 += 1
            _pairs.append((_num6, binomial(((2*n) - 1), (n - 1))))
        return _pairs
    return {'lhs': lhs, 'rhs': rhs, 'line': line}


# divisibility-a
def _build_39(Fraction, _lcm, _partials, DomainError):
    def lhs(p, n):
        _d1 = (n + 1)
        _k2, _num3, _den4 = 1, 0, 1
        while _k2 <= _d1:
            k = _k2
            if p < 0:
                raise DomainError('exponent p is %d, below 0' % p)
            _num3 += (_a_ext(n, k)**p)
            _k2 += 1
        return _num3
    def rhs(p, n):
        return binomial((2*n), n)
    def line(p, _xs):
        _pairs = []
        for n in _xs:
            _d5 = (n + 1)
            _t6 = None
            _k7, _num8, _den9 = 1, 0, 1
            while _k7 <= _d5:
                k = _k7
                if _t6 is None:
                    _t6 = _a_table(n, 2 * (_d5 - k + 1))
                    _t6n = len(_t6)
                if p < 0:
                    raise DomainError('exponent p is %d, below 0' % p)
                _num8 += ((_t6[k] if 0 <= k < _t6n else (0 if _t6n else _a_ext(n, k)))**p)
                _k7 += 1
            _pairs.append((_num8, binomial((2*n), n)))
        return _pairs
    return {'lhs': lhs, 'rhs': rhs, 'line': line}


# mixed-cube n<=m
def _build_40(Fraction, _lcm, _partials, DomainError):
    def lhs(n, m):
        _k2, _num3, _den4 = 1, 0, 1
        while _k2 <= n:
            k = _k2
            _num3 += (((_d1 := _b_ext(n, k))*_d1)*_b_ext(m, k))
            _k2 += 1
        return _num3
    def rhs(n, m):
        _d6 = (n - 1)
        _k7, _num8, _den9 = 0, 0, 1
        while _k7 <= _d6:
            j = _k7
            _num8 += (binomial((m + j), m)*binomial((n + j), (n - 1)))
            _k7 += 1
        _d10 = ((n*binomial((n + m), n))*binomial((2*n), n))
        return Fraction(((((_d5 := binomial((2*n), n))*_d5)*binomial((2*m), m))*(_d10 - ((n + (2*m))*_num8))), (2*_d10))
    def line(n, _xs):
        _t11 = None
        _t17 = None
        _pairs = []
        for m in _xs:
            _t13 = None
            _k14, _num15, _den16 = 1, 0, 1
            while _k14 <= n:
                k = _k14
                if _t11 is None:
                    _t11 = _b_table(n, 2 * len(_xs))
                    _t11n = len(_t11)
                if _t13 is None:
                    _t13 = _b_table(m, 2 * (n - k + 1))
                    _t13n = len(_t13)
                _num15 += (((_d12 := (_t11[k] if 0 <= k < _t11n else (0 if _t11n else _b_ext(n, k))))*_d12)*(_t13[k] if 0 <= k < _t13n else (0 if _t13n else _b_ext(m, k))))
                _k14 += 1
            if _t17 is None:
                _t17 = _binomial_table((2*n), 2 * len(_xs))
                _t17n = len(_t17)
            _d19 = (n - 1)
            _d22 = (n - 1)
            _k24, _num25, _den26 = 0, 0, 1
            if (_k24 + m) >= 0 and (_k24 + n) >= 0:
                if _k24 < (m - m):
                    _k24 = (m - m)
                if _k24 < (_d22 - n):
                    _k24 = (_d22 - n)
                if m < 0 or _d22 < 0:
                    _k24 = _d19 + 1
            _l20 = _k24
            _r21 = _r23 = ()
            if _d19 - _k24 >= 31:
                if 0 <= m <= (_k24 + m):
                    _r21 = binomials((_k24 + m), m, 1, 0, _d19 - _k24 + 1)
                if 0 <= _d22 <= (_k24 + n):
                    _r23 = binomials((_k24 + n), _d22, 1, 0, _d19 - _k24 + 1)
            while _k24 <= _d19:
                j = _k24
                _num25 += ((_r21[j - _l20] if _r21 else binomial((j + m), m))*(_r23[j - _l20] if _r23 else binomial((j + n), _d22)))
                _k24 += 1
            _d27 = ((n*binomial((n + m), n))*(_t17[n] if 0 <= n < _t17n else (0 if _t17n else binomial((2*n), n))))
            _d28 = (2*_d27)
            if not _d28:
                raise ZeroDivisionError('zero denominator')
            _pairs.append(((_num15*_d28), ((((_d18 := (_t17[n] if 0 <= n < _t17n else (0 if _t17n else binomial((2*n), n))))*_d18)*binomial((2*m), m))*(_d27 - ((n + (2*m))*_num25)))))
        return _pairs
    def constraint(n, m):
        return n <= m
    def admit(n, _xs):
        return [m for m in _xs if n <= m]
    return {'lhs': lhs, 'rhs': rhs, 'line': line, 'constraint': constraint, 'admit': admit}


# mixed-cube m<n
def _build_41(Fraction, _lcm, _partials, DomainError):
    _rs10 = object()
    def lhs(n, m):
        _k2, _num3, _den4 = 1, 0, 1
        while _k2 <= m:
            k = _k2
            _num3 += (((_d1 := _b_ext(n, k))*_d1)*_b_ext(m, k))
            _k2 += 1
        return _num3
    def rhs(n, m):
        _d6 = (m - 1)
        _store = _partials()
        _k7, _num8, _den9 = _store.get((_rs10, n), (None, 0, 1))
        if _k7 is None or _k7 > _d6 + 1:
            _k7, _num8, _den9 = 0, 0, 1
        while _k7 <= _d6:
            j = _k7
            _num8 += (binomial((n + j), n)*binomial((n + j), (n - 1)))
            _k7 += 1
        _store[(_rs10, n)] = _k7, _num8, _den9
        _d11 = ((m*binomial((n + m), n))*binomial((n + m), n))
        return Fraction(((((_d5 := binomial((2*n), n))*_d5)*binomial((2*m), m))*(_d11 - ((n + (2*m))*_num8))), (2*_d11))
    def line(n, _xs):
        _k21 = None
        _t12 = None
        _t18 = None
        _pairs = []
        for m in _xs:
            _t14 = None
            _k15, _num16, _den17 = 1, 0, 1
            while _k15 <= m:
                k = _k15
                if _t12 is None:
                    _t12 = _b_table(n, 2 * len(_xs))
                    _t12n = len(_t12)
                if _t14 is None:
                    _t14 = _b_table(m, 2 * (m - k + 1))
                    _t14n = len(_t14)
                _num16 += (((_d13 := (_t12[k] if 0 <= k < _t12n else (0 if _t12n else _b_ext(n, k))))*_d13)*(_t14[k] if 0 <= k < _t14n else (0 if _t14n else _b_ext(m, k))))
                _k15 += 1
            if _t18 is None:
                _t18 = _binomial_table((2*n), 2 * len(_xs))
                _t18n = len(_t18)
            _d20 = (m - 1)
            if _k21 is None or _k21 > _d20 + 1:
                _k21, _num22, _den23 = 0, 0, 1
            while _k21 <= _d20:
                j = _k21
                _num22 += (binomial((n + j), n)*binomial((n + j), (n - 1)))
                _k21 += 1
            _d24 = ((m*binomial((n + m), n))*binomial((n + m), n))
            _d25 = (2*_d24)
            if not _d25:
                raise ZeroDivisionError('zero denominator')
            _pairs.append(((_num16*_d25), ((((_d19 := (_t18[n] if 0 <= n < _t18n else (0 if _t18n else binomial((2*n), n))))*_d19)*binomial((2*m), m))*(_d24 - ((n + (2*m))*_num22)))))
        return _pairs
    def constraint(n, m):
        return m < n
    def admit(n, _xs):
        return [m for m in _xs if m < n]
    return {'lhs': lhs, 'rhs': rhs, 'line': line, 'constraint': constraint, 'admit': admit}


BUILT = {
    (('m', 'k'), 'c(m+2,k) == c(m,k) + 2*c(m,k-1) + c(m,k-2)', None): _build_0,
    (('n', 'k'), 'b(n,k) == b(n-1,k-1) + 2*b(n-1,k) + b(n-1,k+1)', 'k <= n'): _build_1,
    (('n', 'k'), 'a(n,k) == a(n-1,k-1) + 2*a(n-1,k) + a(n-1,k+1)', 'k <= n + 1'): _build_2,
    (('m', 'n'), 'sum(c(m,k), k=0..n) == binomial(m-1,n)', None): _build_3,
    (('m', 'n'), 'sum((-1)^k * c(m,k), k=0..n) == (-1)^n * c(m-1,n)', 'n <= m - 1'): _build_4,
    (('n',), 'sum((-1)^k * b(n,k), k=1..n) == -catalan(n-1)', None): _build_5,
    (('n',), 'sum((-1)^k * a(n,k), k=1..n+1) == 0', None): _build_6,
    (('n',), 'sum(b(n,k), k=1..n) == (n+1)/2 * catalan(n)', None): _build_7,
    (('n',), 'sum(a(n,k), k=1..n+1) == (n+1) * catalan(n)', None): _build_8,
    (('n',), 'sum(b(n,k)^2, k=1..n) == catalan(2n-1)', None): _build_9,
    (('n',), 'sum(a(n,k)^2, k=1..n+1) == catalan(2n)', None): _build_10,
    (('n', 'i'), 'sum(b(n,k)*b(n,n+k-i)*(n+2k-i), k=1..i) == (n+1)*catalan(n)*binomial(2n-2,i-1)', 'i <= n'): _build_11,
    (('m', 'n'), 'sum(c(m,k)^2, k=0..n) == (m-2n)/m * binomial(m-1,n)^2 + 2/m * sum(binomial(m-1,k)^2, k=0..n-1)', None): _build_12,
    (('m', 'n'), 'sum((-1)^k * c(m,k)^2, k=0..n) == 2*(-1)^n * binomial(m-1,n)^2 - sum((-1)^k * binomial(m,k)^2, k=0..n)', None): _build_13,
    (('n',), 'sum(c(n,k)^2, k=0..n) == 2 * catalan(n-1)', None): _build_14,
    (('n',), 'sum((-1)^k * b(n,k)^2, k=1..n) == -(n+1)/2 * catalan(n)', None): _build_15,
    (('m', 'n'), 'binomial(m,n)^2 == sum((2j-n)/n * binomial(j-1,n-1)^2, j=n..m)', 'm >= n'): _build_16,
    (('n',), 'binomial(2n,n)^2 == sum((3n-2k)/n * binomial(2n-1-k,n-1)^2, k=0..n)', None): _build_17,
    (('n',), 'binomial(2n,n)^2 == sum((n+2j)/n * binomial(n-1+j,n-1)^2, j=0..n)', None): _build_18,
    (('n',), 'sum(binomial(n,k)^2, k=0..n) == binomial(2n,n)', None): _build_19,
    (('n',), 'sum((-1)^k * binomial(2n,k)^2, k=0..2n) == (-1)^n * binomial(2n,n)', None): _build_20,
    (('m', 'n'), 'sum((m-2k)*binomial(m,k)^3, k=0..n) == (m-n)*binomial(m,n)*sum(binomial(j,n)*binomial(j,m-n-1), j=0..m-1)', None): _build_21,
    (('m', 'n'), 'sum(c(m,k)^3, k=0..n) == 4*binomial(m-1,n)^3 - 3*binomial(m-1,n)*sum(binomial(j,n)*binomial(j,m-n-1), j=0..m-1)', None): _build_22,
    (('m', 'n'), 'sum((-1)^k * c(m,k)^3, k=0..n) == (m-3n)/m * (-1)^n * binomial(m-1,n)^3 - (m-3)/m * sum((-1)^k * binomial(m-1,k)^3, k=0..n-1)', None): _build_23,
    (('n',), 'sum(b(n,k)^3, k=0..n) == 1/2 * binomial(2n,n)^3 - 3/2 * binomial(2n,n) * sum(binomial(j,n)*binomial(j,n-1), j=n..2n-1)', None): _build_24,
    (('n',), 'sum(a(n,k)^3, k=1..n+1) == binomial(2n,n)^3 - 3*binomial(2n,n)*sum(binomial(j,n)^2, j=n..2n-1)', None): _build_25,
    (('n',), 'sum((-1)^k * a(n,k)^3, k=1..n+1) == (n-1)/(2n+1) * binomial(2n,n) * binomial(3n,n)', None): _build_26,
    (('n',), 'sum((-1)^k * binomial(2n,k)^3, k=0..2n) == (-1)^n * binomial(2n,n) * binomial(3n,n)', None): _build_27,
    (('n',), 'sum(b(n,k)^3, k=1..n) == 1/(2n) * binomial(2n,n) * sum(k * binomial(2n-k-1,n-1)^2, k=1..n)', None): _build_28,
    (('n',), 'sum(b(n,k)^3, k=1..n) == (n+1)/2 * catalan(n) * seq_b(n)', None): _build_29,
    (('n',), 'sum(a(n,k)^3, k=1..n+1) == (n+1) * catalan(n) * ((2*(n+1)*catalan(n))^2 - 3*seq_a(n))', None): _build_30,
    (('m', 'n'), 'sum(c(m,k) * H(k), k=1..n) == binomial(m-1,n) * H(n) - 1/m * sum(binomial(m,k), k=1..n)', None): _build_31,
    (('n',), 'sum(c(n,k) * H(k), k=1..n) == (1 - 2^n) / n', None): _build_32,
    (('n',), 'sum(b(n,k) * H(n-k), k=0..n-1) == (2n*H(n)-1)/(4n) * binomial(2n,n) - (2^(2n-1)-1)/(2n)', None): _build_33,
    (('n',), 'sum(a(n,k) * H(n-k+1), k=1..n) == H(n) * binomial(2n,n) - (2^(2n)-1)/(2n+1)', None): _build_34,
    (('n',), 'sum((n-2k) * H(k) * binomial(n,k), k=1..n) == 1 - 2^n', None): _build_35,
    (('k', 'n'), 'c(k*n+1, n) == ((k-2)*n + 1) * gen_catalan(k, n)', None): _build_36,
    (('p', 'm', 'n'), 'sum(c(m,k)^p, k=0..n) == binomial(m-1,n)', None): _build_37,
    (('p', 'n'), 'sum(b(n,k)^p, k=1..n) == binomial(2n-1,n-1)', None): _build_38,
    (('p', 'n'), 'sum(a(n,k)^p, k=1..n+1) == binomial(2n,n)', None): _build_39,
    (('n', 'm'), 'sum(b(n,k)^2 * b(m,k), k=1..n) == binomial(2n,n)^2 * binomial(2m,m) / 2 * (1 - (n+2m) * sum(binomial(m+j,m) * binomial(n+j,n-1), j=0..n-1) / (n * binomial(n+m,n) * binomial(2n,n)))', 'n <= m'): _build_40,
    (('n', 'm'), 'sum(b(n,k)^2 * b(m,k), k=1..m) == binomial(2n,n)^2 * binomial(2m,m) / 2 * (1 - (n+2m) * sum(binomial(n+j,n) * binomial(n+j,n-1), j=0..m-1) / (m * binomial(n+m,n) * binomial(n+m,n)))', 'm < n'): _build_41,
}
