/* Compiled twins of the hot loops of a step: the conjugate-gradient
 * solves of solver.py, the explicit stencils of operators.py and step(),
 * and the elementwise integrands of diagnostics.py.
 *
 * The library exports dot, cg_solve and the gridded kernels that
 * _kernels.run dispatches; every helper they share is static.  Each
 * export is the twin of numpy code and gives bit-identical results:
 * every element goes through the same IEEE operations in the same order
 * as there (no reassociation, and no contraction into fused multiply-adds,
 * which the build switches off).  The scalar factors arrive precomputed
 * by the same Python expressions the numpy code uses, so they are the
 * same doubles.  Powers, logarithms and sums stay in numpy: an integrand
 * kernel writes the array that numpy then sums, in the shape and layout
 * numpy sums today.  No array argument is ever NULL: a term that only
 * adds an array (the manufactured force, the artificial pressure) is
 * added in numpy by the caller, after either path.
 *
 * Krylov layout (solver.py): rows of L = ny+1; a cell vector holds nx
 * rows with a ghost in the last column; a face vector holds the nx+1
 * rows of x faces (ghost last) followed by the nx rows of y faces.
 * Grid layout (operators.py): C order, cells (nx, ny), x faces
 * (nx+1, ny), y faces (nx, ny+1), nodes (nx+1, ny+1).
 */

#include <math.h>

/* ------------------------------------------------------------------
 * Dot products in numpy's order
 * ------------------------------------------------------------------
 *
 * float(np.einsum("i,i->", a, b)) on contiguous float64 vectors adds in
 * a fixed order on numpy's baseline x86-64 build (SSE2 registers of 2
 * lanes, no fused multiply-add).  The vectors go in chunks of 8192
 * elements, numpy's buffer size, each chunk's sum added in turn to 0.0.
 * Within a chunk two lane sums take the even and the odd elements:
 * blocks of 8 feed them the pairs 6-7, 4-5, 2-3, 0-1, and the tail goes
 * pair by pair, zero-filled behind an odd last element.  Every product
 * is rounded before its add; the chunk's sum is lane 0 + lane 1.  Every
 * dot below follows that order, so it gives numpy's bits. */

/* Two lanes, numpy's SSE2 register. */
typedef double v2 __attribute__((vector_size(16)));

static inline v2 load2(const double *p)
{
    v2 v;
    __builtin_memcpy(&v, p, sizeof v);
    return v;
}

/* One block of 8 of x.y into the lanes s. */
static inline v2 block(v2 s, const double *restrict x, const double *restrict y)
{
    for (long j = 6; j >= 0; j -= 2)
        s += load2(x + j) * load2(y + j);
    return s;
}

/* A dot product taken while a loop writes its vectors: the elements
 * [0, done) are in, in dot()'s order, so the loop can feed each block
 * while it is still in the first-level cache. */
typedef struct {
    double sum;
    v2 lanes;
    long done;
} running_dot;

/* Take in every whole block of 8 of x.y below `end`. */
static inline void dot_upto(running_dot *d, const double *restrict x, const double *restrict y,
                            long end)
{
    for (; d->done + 8 <= end; d->done += 8) {
        d->lanes = block(d->lanes, x + d->done, y + d->done);
        if ((d->done + 8) % 8192 == 0) {
            d->sum += d->lanes[0] + d->lanes[1];
            d->lanes = (v2){0.0, 0.0};
        }
    }
}

/* x.y over n elements, once the loop has written them all. */
static inline double dot_end(running_dot *d, const double *restrict x,
                             const double *restrict y, long n)
{
    dot_upto(d, x, y, n);
    for (long k = d->done; k < n; k += 2) {
        const v2 a = {x[k], k + 1 < n ? x[k + 1] : 0.0}, b = {y[k], k + 1 < n ? y[k + 1] : 0.0};
        d->lanes += a * b;
    }
    return n % 8192 ? d->sum + (d->lanes[0] + d->lanes[1]) : d->sum;
}

/* a.b: twin of solver._dot. */
double dot(long n, const double *restrict a, const double *restrict b)
{
    running_dot d = {0.0, {0.0, 0.0}, 0};
    return dot_end(&d, a, b, n);
}

/* ------------------------------------------------------------------
 * Conjugate gradients
 * ------------------------------------------------------------------ */

/* out = (I - c*Lap) v: twin of solver._diffusion_matvec.  Neighbours
 * -L, +L, -1, +1; the -1 neighbour of cell 0 and the +L and -L ones of
 * the edge rows are absent; the ghosts are zero.  With d, v.out runs
 * along, row by row. */
static inline void diffusion_apply(const double *restrict diag, long nx, long ny, double cx,
                                   double cy, const double *restrict v, double *restrict out,
                                   running_dot *d)
{
    const long L = ny + 1;
    for (long i = 0; i < nx; i++) {
        for (long k = i * L; k < i * L + ny; k++) {
            double o = diag[k] * v[k];
            if (i > 0)
                o -= v[k - L] * cx;
            if (i < nx - 1)
                o -= v[k + L] * cx;
            if (k > 0)
                o -= v[k - 1] * cy;
            o -= v[k + 1] * cy;
            out[k] = o;
        }
        out[i * L + ny] = 0.0;
        if (d)
            dot_upto(d, v, out, (i + 1) * L);
    }
}

/* out = rho_f*u - dt*(mu*Lap(u) + (mu+lam)*grad div u): twin of
 * solver._viscous_matvec.  ihx, ihy are 1/h, cxs, cys dt*mu/h^2 and
 * gxs, gys dt*(mu+lam)/h; div is a cell-vector scratch.  With d, u.out
 * runs along, row by row. */
static inline void viscous_apply(const double *restrict centre, double *restrict div, long nx,
                                 long ny, double ihx, double ihy, double cxs, double cys,
                                 double gxs, double gys, const double *restrict u,
                                 double *restrict out, running_dot *d)
{
    const long L = ny + 1, n = (nx + 1) * L, nc = nx * L;
    const double *ux = u, *uy = u + n, *cy = centre + n;
    double *oy = out + n;

    for (long k = 0; k < nc - 1; k++)
        div[k] = (ux[k + L] - ux[k]) * ihx + (uy[k + 1] - uy[k]) * ihy;
    div[nc - 1] = (ux[nc - 1 + L] - ux[nc - 1]) * ihx + 0.0 * ihy;

    /* x faces: neighbours +L, -L, +1, -1, then grad div; the wall rows
     * keep centre*u (a zero with the sign of u), the ghosts are zero */
    for (long i = 0; i <= nx; i++) {
        const long k0 = i * L;
        if (i == 0 || i == nx) {
            for (long k = k0; k < k0 + ny; k++)
                out[k] = centre[k] * u[k];
        } else {
            for (long k = k0; k < k0 + ny; k++) {
                double o = centre[k] * u[k];
                o -= u[k + L] * cxs;
                o -= u[k - L] * cxs;
                o -= u[k + 1] * cys;
                o -= u[k - 1] * cys;
                o -= div[k] * gxs;
                o += div[k - L] * gxs;
                out[k] = o;
            }
        }
        out[k0 + ny] = 0.0;
        if (d)
            dot_upto(d, u, out, k0 + L);
    }

    /* y faces: neighbours -L, +L, -1, +1, then grad div; the wall
     * columns 0 and ny are zero */
    for (long i = 0; i < nx; i++) {
        const long k0 = i * L;
        oy[k0] = 0.0;
        for (long k = k0 + 1; k < k0 + ny; k++) {
            double o = cy[k] * uy[k];
            if (i > 0)
                o -= uy[k - L] * cxs;
            if (i < nx - 1)
                o -= uy[k + L] * cxs;
            o -= uy[k - 1] * cys;
            o -= uy[k + 1] * cys;
            o -= div[k] * gys;
            o += div[k - 1] * gys;
            oy[k] = o;
        }
        oy[k0 + ny] = 0.0;
        if (d)
            dot_upto(d, u, out, n + k0 + L);
    }
}

/* x += alpha*p, r -= alpha*ap and, when jacobi is given, z = r/jacobi,
 * over the elements [k0, k1). */
static inline void update_range(long k0, long k1, double *restrict x, double *restrict r,
                                const double *restrict p, const double *restrict ap,
                                double *restrict z, const double *restrict jacobi, double alpha)
{
    if (jacobi) {
        for (long k = k0; k < k1; k++) {
            x[k] += p[k] * alpha;
            r[k] -= ap[k] * alpha;
            z[k] = r[k] / jacobi[k];
        }
    } else {
        for (long k = k0; k < k1; k++) {
            x[k] += p[k] * alpha;
            r[k] -= ap[k] * alpha;
        }
    }
}

/* The update of x, r and, with jacobi, z over all n elements, then r.z
 * (z is r without jacobi, and then never written through z), each block
 * of 8 summed as soon as it is updated. */
static inline double update_dot(long n, double *restrict x, double *restrict r,
                                const double *restrict p, const double *restrict ap,
                                double *restrict z, const double *restrict jacobi, double alpha)
{
    running_dot d = {0.0, {0.0, 0.0}, 0};
    for (long k = 0; k < n; k += 8) {
        const long end = k + 8 < n ? k + 8 : n;
        update_range(k, end, x, r, p, ap, z, jacobi, alpha);
        dot_upto(&d, r, jacobi ? z : r, end);
    }
    return dot_end(&d, r, jacobi ? z : r, n);
}

/* p = beta*p + z.  Kept out of line, as it was while exported: inlined
 * into cg_solve (GCC 12, x86-64), 32^2 solves ran about 2% slower. */
static __attribute__((noinline)) void cg_direction(long n, double *restrict p,
                                                   const double *restrict z, double beta)
{
    for (long k = 0; k < n; k++)
        p[k] = p[k] * beta + z[k];
}

/* The status codes of cg_solve, also read by solver._cg. */
enum { CG_CONVERGED, CG_RESIDUAL_NOT_FINITE, CG_STALLED, CG_BREAKDOWN };

/* The loop of solver._cg after the right-hand side norm, as one call:
 * twin of solver._cg_iterate.  The operator is the diffusion one (kind 0,
 * f = cx, cy) or the viscous one (kind 1, f = ihx, ihy, cxs, cys, gxs,
 * gys, div its scratch); r holds b on entry.  tb is tol*|b|; jmin, jmax
 * and far are _cg's bounds of the Jacobi test, unused without jacobi.
 * p.Ap is taken while the matvec writes Ap, and r.z while the update
 * writes r and z.  z is r in plain CG, so those two may alias.  Returns
 * the status; *iters is the iteration count and *value the residual norm
 * (converged, not finite, stalled) or p.Ap (breakdown). */
long cg_solve(long kind, const double *restrict diag, double *restrict div, long nx, long ny,
              const double *restrict f, long n, double *restrict x, double *r,
              double *restrict p, double *restrict ap, double *z,
              const double *restrict jacobi, double tb, long max_iter, double jmin, double jmax,
              double far, long *iters, double *value)
{
#define APPLY(v, d)                                                                          \
    (kind ? viscous_apply(diag, div, nx, ny, f[0], f[1], f[2], f[3], f[4], f[5], v, ap, d) \
          : diffusion_apply(diag, nx, ny, f[0], f[1], v, ap, d))
    double rz;
    APPLY(x, 0);
    for (long k = 0; k < n; k++)
        r[k] = r[k] - ap[k];
    if (jacobi) {
        for (long k = 0; k < n; k++)
            p[k] = r[k] / jacobi[k];
        rz = dot(n, r, p);
    } else {
        for (long k = 0; k < n; k++)
            p[k] = r[k];
        rz = dot(n, r, r);
    }
    for (long it = 0;; it++) {
        *iters = it;
        if (!jacobi || it >= max_iter || !(jmin * rz > far && jmax * rz < 1e300)) {
            const double res = sqrt(jacobi ? dot(n, r, r) : rz);
            *value = res;
            if (!isfinite(res))
                return CG_RESIDUAL_NOT_FINITE;
            if (res <= tb)
                return CG_CONVERGED;
            if (it >= max_iter)
                return CG_STALLED;
        }
        running_dot d = {0.0, {0.0, 0.0}, 0};
        APPLY(p, &d);
        const double pap = dot_end(&d, p, ap, n);
        if (!(pap > 0.0)) {
            *value = pap;
            return CG_BREAKDOWN;
        }
        const double rz_new = update_dot(n, x, r, p, ap, z, jacobi, rz / pap);
        cg_direction(n, p, z, rz_new / rz);
        rz = rz_new;
    }
#undef APPLY
}

/* The centered face gradient of a cell scalar, zero on the walls: twin
 * of operators.gradient_cc_to_face. */
void gradient(const double *restrict q, double *restrict gx, double *restrict gy, long nx,
              long ny, double hx, double hy)
{
    for (long j = 0; j < ny; j++) {
        gx[j] = 0.0;
        gx[nx * ny + j] = 0.0;
    }
    for (long i = 1; i < nx; i++)
        for (long j = 0; j < ny; j++)
            gx[i * ny + j] = (q[i * ny + j] - q[(i - 1) * ny + j]) / hx;
    for (long i = 0; i < nx; i++) {
        const double *qi = q + i * ny;
        double *g = gy + i * (ny + 1);
        g[0] = g[ny] = 0.0;
        for (long j = 1; j < ny; j++)
            g[j] = (qi[j] - qi[j - 1]) / hy;
    }
}

/* The mass flux v*q on an interior face between lo and hi, v carrying
 * from lo to hi: the upwind value, or the mean when centered (twin of
 * operators._face_value). */
static inline double face_flux(double lo, double hi, double v, long centered)
{
    return v * (centered ? 0.5 * (lo + hi) : v > 0.0 ? lo : hi);
}

/* The flux-difference divergence of q*u into out: twin of
 * operators.upwind_scalar_flux_div.  fx, fy take the face fluxes, zero on
 * the walls. */
void scalar_flux_div(const double *restrict q, const double *restrict ux,
                     const double *restrict uy, double *restrict fx, double *restrict fy,
                     double *restrict out, long nx, long ny, double hx, double hy, long centered)
{
    const long Ly = ny + 1;
    for (long j = 0; j < ny; j++)
        fx[j] = fx[nx * ny + j] = 0.0;
    for (long k = ny; k < nx * ny; k++)
        fx[k] = face_flux(q[k - ny], q[k], ux[k], centered);
    for (long i = 0; i < nx; i++) {
        const double *qi = q + i * ny;
        const double *v = uy + i * Ly;
        double *f = fy + i * Ly;
        f[0] = f[ny] = 0.0;
        for (long j = 1; j < ny; j++)
            f[j] = face_flux(qi[j - 1], qi[j], v[j], centered);
    }
    for (long i = 0; i < nx; i++) {
        const double *f = fy + i * Ly;
        for (long j = 0; j < ny; j++) {
            const long k = i * ny + j;
            out[k] = (fx[k + ny] - fx[k]) / hx + (f[j + 1] - f[j]) / hy;
        }
    }
}

/* The regularization force eps*(grad rho . grad) u_i on faces, zero on
 * the walls, from the face gradient (gx, gy) of rho: twin of
 * operators.eps_gradrho_gradu for eps > 0.  The cross gradients are
 * operators.box_average of the other family; the tangential velocity
 * takes its no-slip sign-flip ghosts (the negated adjacent value). */
void eps_drag(const double *restrict gx, const double *restrict gy, const double *restrict ux,
              const double *restrict uy, double *restrict fx, double *restrict fy, long nx,
              long ny, double hx, double hy, double eps)
{
    const long Ly = ny + 1;
    const double h2x = 2.0 * hx, h2y = 2.0 * hy;
    for (long j = 0; j < ny; j++)
        fx[j] = fx[nx * ny + j] = 0.0;
    for (long i = 1; i < nx; i++) {
        for (long j = 0; j < ny; j++) {
            const long k = i * ny + j, a = (i - 1) * Ly + j;
            const double drdy = 0.25 * (gy[a] + gy[a + 1] + gy[a + Ly] + gy[a + Ly + 1]);
            const double duxdx = (ux[k + ny] - ux[k - ny]) / h2x;
            const double up = j < ny - 1 ? ux[k + 1] : -ux[k];
            const double dn = j > 0 ? ux[k - 1] : -ux[k];
            const double duxdy = (up - dn) / h2y;
            fx[k] = eps * (gx[k] * duxdx + drdy * duxdy);
        }
    }
    for (long i = 0; i < nx; i++) {
        double *f = fy + i * Ly;
        f[0] = f[ny] = 0.0;
        for (long j = 1; j < ny; j++) {
            const long k = i * Ly + j, a = i * ny + j - 1;
            const double drdx = 0.25 * (gx[a] + gx[a + 1] + gx[a + ny] + gx[a + ny + 1]);
            const double duydy = (uy[k + 1] - uy[k - 1]) / h2y;
            const double up = i < nx - 1 ? uy[k + Ly] : -uy[k];
            const double dn = i > 0 ? uy[k - Ly] : -uy[k];
            const double duydx = (up - dn) / h2x;
            f[j] = eps * (drdx * duydx + gy[k] * duydy);
        }
    }
}

/* The face average of rho times u minus dt*(adv + grad P + drag), one
 * face of step()'s momentum right-hand side. */
static inline double momentum(double rf, double u, double a, double g, double d, double dt)
{
    return rf * u - dt * (a + g + d);
}

/* The momentum right-hand side of step(): m = rho_f*u - dt*(adv + grad P
 * + drag), with rho_f the face average of rho that copies the adjacent
 * cell on the walls (operators.face_average_x/_y). */
void momentum_rhs(const double *restrict rho, const double *restrict ux,
                  const double *restrict uy, const double *restrict ax,
                  const double *restrict ay, const double *restrict gx,
                  const double *restrict gy, const double *restrict dx,
                  const double *restrict dy, double *restrict mx, double *restrict my,
                  long nx, long ny, double dt)
{
    const long Ly = ny + 1;
    for (long j = 0; j < ny; j++) {
        const long k = nx * ny + j;
        mx[j] = momentum(rho[j], ux[j], ax[j], gx[j], dx[j], dt);
        mx[k] = momentum(rho[k - ny], ux[k], ax[k], gx[k], dx[k], dt);
    }
    for (long k = ny; k < nx * ny; k++)
        mx[k] = momentum(0.5 * (rho[k - ny] + rho[k]), ux[k], ax[k], gx[k], dx[k], dt);
    for (long i = 0; i < nx; i++) {
        const double *r = rho + i * ny;
        const long k0 = i * Ly;
        my[k0] = momentum(r[0], uy[k0], ay[k0], gy[k0], dy[k0], dt);
        my[k0 + ny] = momentum(r[ny - 1], uy[k0 + ny], ay[k0 + ny], gy[k0 + ny], dy[k0 + ny], dt);
        for (long j = 1; j < ny; j++) {
            const long k = k0 + j;
            my[k] = momentum(0.5 * (r[j - 1] + r[j]), uy[k], ay[k], gy[k], dy[k], dt);
        }
    }
}

/* ------------------------------------------------------------------
 * Integrands of the diagnostics
 * ------------------------------------------------------------------ */

/* The energy density of diagnostics.total_energy without the artificial
 * pressure: rho|u_c|^2/2 with the face-to-center velocity, the elastic
 * term and b^2/2.  `elastic` holds log(rho) when iso (the term is
 * (ecoef*rho)*log rho) and rho**gamma otherwise (ecoef*rho**gamma). */
void energy_density(const double *restrict rho, const double *restrict b,
                    const double *restrict ux, const double *restrict uy,
                    const double *restrict elastic, double *restrict e, long nx, long ny,
                    double ecoef, long iso)
{
    for (long i = 0; i < nx; i++) {
        const double *u = ux + i * ny, *v = uy + i * (ny + 1);
        for (long j = 0; j < ny; j++) {
            const long k = i * ny + j;
            const double ucx = 0.5 * (u[j] + u[j + ny]);
            const double ucy = 0.5 * (v[j] + v[j + 1]);
            const double kinetic = 0.5 * rho[k] * (ucx * ucx + ucy * ucy);
            const double el = iso ? ecoef * rho[k] * elastic[k] : ecoef * elastic[k];
            e[k] = kinetic + el + 0.5 * b[k] * b[k];
        }
    }
}

/* The squares of the velocity gradients of
 * diagnostics.velocity_gradient_sq_integral: (dux/dx)^2, (duy/dy)^2 and
 * (div u)^2 on cells, (dux/dy)^2 and (duy/dx)^2 on nodes with the no-slip
 * sign-flip ghosts of operators.node_shear. */
void velocity_gradient_sq(const double *restrict ux, const double *restrict uy,
                          double *restrict xx, double *restrict yy, double *restrict xy,
                          double *restrict yx, double *restrict dv, long nx, long ny, double hx,
                          double hy)
{
    const long Ly = ny + 1;
    for (long i = 0; i < nx; i++) {
        const double *v = uy + i * Ly;
        for (long j = 0; j < ny; j++) {
            const long k = i * ny + j;
            const double a = (ux[k + ny] - ux[k]) / hx;
            const double c = (v[j + 1] - v[j]) / hy;
            const double d = a + c;
            xx[k] = a * a;
            yy[k] = c * c;
            dv[k] = d * d;
        }
    }
    for (long i = 0; i <= nx; i++) {
        const double *u = ux + i * ny;
        double *o = xy + i * Ly;
        double g = (u[0] - -u[0]) / hy;
        o[0] = g * g;
        for (long j = 1; j < ny; j++) {
            const double d = (u[j] - u[j - 1]) / hy;
            o[j] = d * d;
        }
        g = (-u[ny - 1] - u[ny - 1]) / hy;
        o[ny] = g * g;
    }
    for (long i = 0; i <= nx; i++) {
        /* rows i and i-1 of uy, or the negated adjacent row at a wall */
        const double *hi = uy + (i < nx ? i : nx - 1) * Ly, *lo = uy + (i > 0 ? i - 1 : 0) * Ly;
        const int hi_wall = i == nx, lo_wall = i == 0;
        for (long j = 0; j <= ny; j++) {
            const double h = hi[j], l = lo[j];
            const double g = ((hi_wall ? -h : h) - (lo_wall ? -l : l)) / hx;
            yx[i * Ly + j] = g * g;
        }
    }
}

/* The weighted squared face gradient of diagnostics._weighted_grad_sq on
 * the interior faces, w = coef*pw averaged to the faces:
 * ox (nx-1, ny) = w_x*gx^2 and oy (nx, ny-1) = w_y*gy^2. */
void weighted_grad_sq(const double *restrict pw, const double *restrict gx,
                      const double *restrict gy, double *restrict ox, double *restrict oy,
                      long nx, long ny, double coef)
{
    for (long i = 1; i < nx; i++) {
        for (long j = 0; j < ny; j++) {
            const long k = i * ny + j;
            const double w = 0.5 * (coef * pw[k - ny] + coef * pw[k]);
            ox[k - ny] = w * (gx[k] * gx[k]);
        }
    }
    for (long i = 0; i < nx; i++) {
        for (long j = 1; j < ny; j++) {
            const long k = i * ny + j;
            const double w = 0.5 * (coef * pw[k - 1] + coef * pw[k]);
            const double g = gy[i * (ny + 1) + j];
            oy[i * (ny - 1) + j - 1] = w * (g * g);
        }
    }
}
