/* Elementwise loops of the conjugate-gradient solves in solver.py.
 *
 * Each function is the compiled twin of a numpy function of solver.py and
 * gives bit-identical results: every element goes through the same IEEE
 * operations in the same order as there (no reassociation, and no
 * contraction into fused multiply-adds, which the build switches off).
 * The scalar factors arrive precomputed by the same Python expressions
 * the numpy code uses, so they are the same doubles.  The dot products
 * stay in numpy.
 *
 * Layout (solver.py): rows of L = ny+1; a cell vector holds nx rows with
 * a ghost in the last column; a face vector holds the nx+1 rows of x faces
 * (ghost last) followed by the nx rows of y faces.
 */

/* out = (I - c*Lap) v: twin of solver._diffusion_matvec.  Neighbours
 * -L, +L, -1, +1; the -1 neighbour of cell 0 and the +L and -L ones of
 * the edge rows are absent; the ghosts are zero. */
void diffusion_matvec(const double *restrict diag, long nx, long ny, double cx, double cy,
                      const double *restrict v, double *restrict out)
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
    }
}

/* out = rho_f*u - dt*(mu*Lap(u) + (mu+lam)*grad div u): twin of
 * solver._viscous_matvec.  ihx, ihy are 1/h, cxs, cys dt*mu/h^2 and
 * gxs, gys dt*(mu+lam)/h; div is a cell-vector scratch. */
void viscous_matvec(const double *restrict centre, double *restrict div, long nx, long ny,
                    double ihx, double ihy, double cxs, double cys, double gxs, double gys,
                    const double *restrict u, double *restrict out)
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
    }
}

/* x += alpha*p, r -= alpha*ap and, when jacobi is given, z = r/jacobi:
 * twin of solver._cg_update.  Without jacobi, z is not touched. */
void cg_update(long n, double *restrict x, double *restrict r, const double *restrict p,
               const double *restrict ap, double *restrict z, const double *restrict jacobi,
               double alpha)
{
    if (jacobi) {
        for (long k = 0; k < n; k++) {
            x[k] += p[k] * alpha;
            r[k] -= ap[k] * alpha;
            z[k] = r[k] / jacobi[k];
        }
    } else {
        for (long k = 0; k < n; k++) {
            x[k] += p[k] * alpha;
            r[k] -= ap[k] * alpha;
        }
    }
}

/* p = beta*p + z: twin of solver._cg_direction. */
void cg_direction(long n, double *restrict p, const double *restrict z, double beta)
{
    for (long k = 0; k < n; k++)
        p[k] = p[k] * beta + z[k];
}
